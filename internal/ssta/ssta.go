// Package ssta implements FULLSSTA, the paper's accurate statistical
// timing engine (section 4.2, after Liou et al., DAC 2001): arrival times
// are discrete PDFs propagated through the circuit with Sum and Max
// operators at a user-controlled sampling rate (10-15 points per PDF).
//
// Besides the output PDFs, the engine records the mean and variance of
// the arrival time at every node — exactly what the paper stores for the
// fast inner engine (FASSTA) and the WNSS path tracer to consume.
//
// There is one engine, Incremental, and one per-gate PDF kernel
// (scratch.gate) behind all of its uses: the full pass that Analyze and
// NewIncremental run, the in-place cone repair after a resize, and the
// BatchWhatIf overlay. Every node PDF lives in one dpdf.Arena, so
// repairs and rollbacks allocate nothing once warm.
//
// The full pass is levelized and optionally parallel: gates within one
// topological level have no data dependencies on each other (every fanin
// lives at a strictly lower level), so a level-barrier schedule computes
// them concurrently with bit-identical results — each gate's PDF depends
// only on its fanin PDFs and its own delay, never on evaluation order.
package ssta

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// Options controls the engine.
type Options struct {
	// Points is the PDF sampling rate; 0 means dpdf.DefaultPoints (12,
	// the middle of the paper's 10-15 range).
	Points int
	// Workers is the number of goroutines propagating PDFs within each
	// topological level: 0 means one per available CPU
	// (runtime.GOMAXPROCS), 1 forces fully serial propagation. Any value
	// produces bit-identical results; only the wall time changes.
	Workers int
}

func (o Options) points() int {
	if o.Points <= 0 {
		return dpdf.DefaultPoints
	}
	return o.Points
}

// Result is one FULLSSTA analysis. Slices are indexed by GateID.
type Result struct {
	// STA is the nominal deterministic analysis the statistical one is
	// built on (frozen slews and mean delays).
	STA *sta.Result
	// Arrival holds the full arrival-time PDF at every node.
	Arrival []dpdf.PDF
	// Node holds the arrival moments at every node (mean/variance), the
	// values FASSTA and the WNSS tracer read.
	Node []normal.Moments
	// GateDelay holds the delay RV moments of every logic gate.
	GateDelay []normal.Moments
	// CircuitPDF is the PDF of the circuit delay: Max over all POs.
	CircuitPDF dpdf.PDF
	// Mean and Sigma are the circuit-delay moments (of CircuitPDF).
	Mean, Sigma float64
}

// Analyze runs FULLSSTA over the design under the variation model. It
// is the engine's full pass without the repair state. Since nothing
// will repair the result, its Arrival and CircuitPDF are views into a
// packed copy of the engine's arena (no per-slot stride padding), and
// nothing of the engine's scratch or arena is kept alive.
func Analyze(d *synth.Design, vm *variation.Model, opts Options) *Result {
	inc := newEngine(d, vm, opts)
	pdfs := inc.arena.Packed()
	n := d.Circuit.NumGates()
	inc.r.Arrival, inc.r.CircuitPDF = pdfs[:n:n], pdfs[n]
	return inc.r
}

// Cost evaluates the paper's objective (eq. 7) at the circuit level:
// max over primary outputs of mean_i + lambda * sigma_i.
func (r *Result) Cost(d *synth.Design, lambda float64) float64 {
	worst := math.Inf(-1)
	for _, po := range d.Circuit.Outputs {
		m := r.Node[po]
		if c := m.Mean + lambda*m.Sigma(); c > worst {
			worst = c
		}
	}
	if len(d.Circuit.Outputs) == 0 {
		return 0
	}
	return worst
}

// WorstOutput returns the PO with the highest mean + lambda*sigma — the
// starting point of the WNSS trace.
func (r *Result) WorstOutput(d *synth.Design, lambda float64) circuit.GateID {
	worst := circuit.None
	worstCost := math.Inf(-1)
	for _, po := range d.Circuit.Outputs {
		m := r.Node[po]
		if c := m.Mean + lambda*m.Sigma(); c > worstCost {
			worstCost = c
			worst = po
		}
	}
	return worst
}

// Yield returns the probability that the circuit delay meets the period T
// (the Figure 1 interpretation: the fraction of manufactured units
// functional at T).
func (r *Result) Yield(T float64) float64 {
	return r.CircuitPDF.CDF(T)
}
