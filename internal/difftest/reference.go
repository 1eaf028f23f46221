package difftest

import (
	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// ReferenceSSTA is the from-scratch FULLSSTA oracle: sta.Analyze for
// the nominal delays, then every gate's arrival PDF in topological
// order as MaxN over its fanin arrivals plus its discretized delay
// normal, written with the package-level, allocating dpdf operators. It
// is deliberately naive — serial, one heap PDF per node, no arena, no
// reused scratch, no repair — so it shares nothing with the ssta engine
// but the dpdf operators themselves, and the engine is never checked
// against itself. points <= 0 means dpdf.DefaultPoints, as in
// ssta.Options.
func ReferenceSSTA(d *synth.Design, vm *variation.Model, points int) *ssta.Result {
	if points <= 0 {
		points = dpdf.DefaultPoints
	}
	c := d.Circuit
	n := c.NumGates()
	r := &ssta.Result{
		STA:       sta.Analyze(d),
		Arrival:   make([]dpdf.PDF, n),
		Node:      make([]normal.Moments, n),
		GateDelay: make([]normal.Moments, n),
	}
	for _, id := range c.MustTopoOrder() {
		g := c.Gate(id)
		if g.Fn == circuit.Input {
			r.Arrival[id] = dpdf.Point(0)
			continue
		}
		mean := r.STA.Delay[id]
		sigma := vm.Sigma(d.Cell(id), mean)
		r.GateDelay[id] = normal.Moments{Mean: mean, Var: sigma * sigma}
		fanins := make([]dpdf.PDF, len(g.Fanin))
		for i, f := range g.Fanin {
			fanins[i] = r.Arrival[f]
		}
		r.Arrival[id] = dpdf.Sum(dpdf.MaxN(fanins, points), dpdf.FromNormal(mean, sigma, points), points)
		r.Node[id] = r.Arrival[id].Moments()
	}
	pos := make([]dpdf.PDF, len(c.Outputs))
	for i, po := range c.Outputs {
		pos[i] = r.Arrival[po]
	}
	r.CircuitPDF = dpdf.MaxN(pos, points)
	r.Mean = r.CircuitPDF.Mean()
	r.Sigma = r.CircuitPDF.Sigma()
	return r
}
