package ssta

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/parallel"
)

// WhatIfOutcome is the circuit-level summary of one hypothetical sizing,
// bit-identical to what applying the changes (Incremental.ResizeAll) and
// reading Result would produce — without the engine ever moving.
type WhatIfOutcome struct {
	// Mean and Sigma are the circuit-delay PDF moments under the
	// candidate sizing.
	Mean, Sigma float64
	// Cost is max over POs of mean + lambda*sigma (Result.Cost).
	Cost float64
	// MaxArrival is the deterministic circuit delay (sta.Result).
	MaxArrival float64
	// Touched counts node re-evaluations (the dirty-cone size).
	Touched int
	// Changed reports whether any node's timing actually moved; when
	// false the summary fields equal the clean analysis.
	Changed bool
}

// whatIfWorker is one worker's overlay over the engine's clean state:
// sparse copy-on-write views of the deterministic arrays, the
// arrival-PDF arena, node moments, and size overrides. Overlay slots
// shadow the clean analysis; everything not marked dirty reads through
// to it. Candidates never write the engine, the circuit sizes or the
// clean Result, so K candidates fan out over workers with
// bit-deterministic results at any worker count. Reset is O(touched).
type whatIfWorker struct {
	inc *Incremental
	scratch
	queue *circuit.LevelQueue
	over  *dpdf.Arena // arrival PDFs; slot n = candidate circuit PDF
	// An overlay arena slot with Len > 0 shadows the clean arrival PDF;
	// staDirty marks shadowed deterministic values. Input gates set only
	// the latter (their statistical arrival is pinned at Point(0)).
	staDirty    []bool
	arr, slew   []float64
	mom         []normal.Moments
	touched     []circuit.GateID
	sizeOv      []int32 // -1 = no override
	sizeTouched []circuit.GateID
}

func newWhatIfWorker(inc *Incremental) *whatIfWorker {
	n := inc.d.Circuit.NumGates()
	w := &whatIfWorker{
		inc:      inc,
		queue:    circuit.NewLevelQueue(n),
		over:     dpdf.NewArena(n+1, inc.arena.Stride()),
		staDirty: make([]bool, n),
		arr:      make([]float64, n),
		slew:     make([]float64, n),
		mom:      make([]normal.Moments, n),
		sizeOv:   make([]int32, n),
	}
	for i := range w.sizeOv {
		w.sizeOv[i] = -1
	}
	return w
}

// reset clears the overlay back to the clean state in O(touched).
func (w *whatIfWorker) reset() {
	for _, id := range w.touched {
		w.staDirty[id] = false
		w.over.Clear(int(id))
	}
	w.touched = w.touched[:0]
	for _, id := range w.sizeTouched {
		w.sizeOv[id] = -1
	}
	w.sizeTouched = w.sizeTouched[:0]
}

func (w *whatIfWorker) staArr(id circuit.GateID) float64 {
	if w.staDirty[id] {
		return w.arr[id]
	}
	return w.inc.r.STA.Arrival[id]
}

func (w *whatIfWorker) staSlew(id circuit.GateID) float64 {
	if w.staDirty[id] {
		return w.slew[id]
	}
	return w.inc.r.STA.Slew[id]
}

func (w *whatIfWorker) pdf(id circuit.GateID) dpdf.PDF {
	if w.over.Len(int(id)) > 0 {
		return w.over.View(int(id))
	}
	return w.inc.arena.View(int(id))
}

func (w *whatIfWorker) nodeMoments(id circuit.GateID) normal.Moments {
	if w.over.Len(int(id)) > 0 {
		return w.mom[id]
	}
	return w.inc.r.Node[id]
}

func (w *whatIfWorker) size(id circuit.GateID) int {
	if s := w.sizeOv[id]; s >= 0 {
		return int(s)
	}
	return w.inc.d.Circuit.Gate(id).SizeIdx
}

// load mirrors synth.Design.Load under the candidate's size overrides:
// same traversal order, same additions, bit-identical when no override
// applies.
func (w *whatIfWorker) load(id circuit.GateID) float64 {
	d := w.inc.d
	g := d.Circuit.Gate(id)
	load := 0.0
	for _, fo := range g.Fanout {
		load += d.CellAt(fo, w.size(fo)).InputCap
	}
	for _, po := range d.Circuit.Outputs {
		if po == id {
			load += d.Lib.PrimaryOutputLoad
			break
		}
	}
	return load
}

// evaluate runs one candidate through the overlay: seed the dirty set,
// repair level-ordered with the engine's exact cutoff, summarize.
func (w *whatIfWorker) evaluate(clean WhatIfOutcome, changes []SizeChange, lambda float64) WhatIfOutcome {
	inc := w.inc
	c := inc.d.Circuit
	for _, ch := range changes {
		if c.Gate(ch.Gate).SizeIdx == ch.Size && w.sizeOv[ch.Gate] < 0 {
			continue
		}
		if w.sizeOv[ch.Gate] < 0 {
			w.sizeTouched = append(w.sizeTouched, ch.Gate)
		}
		w.sizeOv[ch.Gate] = int32(ch.Size)
		w.queue.Push(ch.Gate, inc.level[ch.Gate])
		for _, f := range c.Gate(ch.Gate).Fanin {
			w.queue.Push(f, inc.level[f])
		}
	}
	touched := 0
	anyChanged := false
	for {
		id, ok := w.queue.Pop()
		if !ok {
			break
		}
		touched++
		if w.recompute(id) {
			anyChanged = true
			for _, fo := range c.Gate(id).Fanout {
				w.queue.Push(fo, inc.level[fo])
			}
		}
	}
	out := clean
	out.Touched = touched
	out.Changed = anyChanged
	if anyChanged {
		// Mirror refreshSummary / Result.Cost through the overlay.
		out.MaxArrival, out.Cost = math.Inf(-1), math.Inf(-1)
		w.ops = w.ops[:0]
		for _, po := range c.Outputs {
			if a := w.staArr(po); a > out.MaxArrival {
				out.MaxArrival = a
			}
			m := w.nodeMoments(po)
			if cost := m.Mean + lambda*m.Sigma(); cost > out.Cost {
				out.Cost = cost
			}
			w.ops = append(w.ops, w.pdf(po))
		}
		if len(c.Outputs) == 0 {
			out.MaxArrival, out.Cost = 0, 0
		}
		out.Mean, out.Sigma = w.sink(w.over, c.NumGates(), inc.pts)
	}
	w.reset()
	return out
}

// recompute re-derives one node into the overlay, mirroring
// Incremental.recompute operation for operation; "changed" compares
// against the clean analysis (each node is visited at most once per
// candidate, so the clean value IS the previous value).
func (w *whatIfWorker) recompute(id circuit.GateID) bool {
	inc := w.inc
	d := inc.d
	g := d.Circuit.Gate(id)
	if !w.staDirty[id] {
		w.staDirty[id] = true
		w.touched = append(w.touched, id)
	}

	if g.Fn == circuit.Input {
		newArr := d.Lib.PrimaryInputRes * w.load(id)
		newSlew := d.Lib.PrimaryInputSlew
		changed := newArr != inc.r.STA.Arrival[id] || newSlew != inc.r.STA.Slew[id]
		w.arr[id] = newArr
		w.slew[id] = newSlew
		return changed
	}

	var fArr, fSlew float64
	for _, f := range g.Fanin {
		if a := w.staArr(f); a > fArr {
			fArr = a
		}
		if s := w.staSlew(f); s > fSlew {
			fSlew = s
		}
	}
	cell := d.CellAt(id, w.size(id))
	load := w.load(id)
	newDelay := cell.Delay.Lookup(fSlew, load)
	newSlew := cell.OutSlew.Lookup(fSlew, load)
	newArr := fArr + newDelay
	changed := newArr != inc.r.STA.Arrival[id] || newSlew != inc.r.STA.Slew[id]
	w.slew[id] = newSlew
	w.arr[id] = newArr

	w.ops = w.ops[:0]
	for _, f := range g.Fanin {
		w.ops = append(w.ops, w.pdf(f))
	}
	w.mom[id] = w.gate(w.over, int(id), newDelay, inc.vm.Sigma(cell, newDelay), inc.pts)
	return changed || !w.over.Equal(int(id), inc.arena.View(int(id)))
}

// BatchWhatIf evaluates K candidate sizings against the engine's current
// analysis in one pass, sharing the clean cone prefix: the clean state is
// read-only, each candidate repairs only its dirty cone into a per-worker
// overlay arena, and neither the circuit nor the engine moves. Outcome
// summaries are bit-identical to applying each candidate via ResizeAll
// and reading Result (the differential tests pin this). Sizes in each
// candidate are absolute target size indices; gates already at the
// target are ignored. workers <= 0 means one per CPU; results do not
// depend on the worker count.
//
// The circuit's sizes must match the engine state (call Sync first if
// they were edited externally); BatchWhatIf panics otherwise, because the
// "clean" analysis it shares would silently be stale.
func (inc *Incremental) BatchWhatIf(cands [][]SizeChange, lambda float64, workers int) []WhatIfOutcome {
	inc.checkRev()
	c := inc.d.Circuit
	for id := 0; id < c.NumGates(); id++ {
		if c.Gate(circuit.GateID(id)).SizeIdx != inc.sizes[id] {
			panic("ssta: circuit sizes diverge from engine state; Sync before BatchWhatIf")
		}
	}
	clean := WhatIfOutcome{
		Mean:       inc.r.Mean,
		Sigma:      inc.r.Sigma,
		Cost:       inc.r.Cost(inc.d, lambda),
		MaxArrival: inc.r.STA.MaxArrival,
	}
	outs := make([]WhatIfOutcome, len(cands))
	workers = min(parallel.Resolve(workers), len(cands))
	state := make([]*whatIfWorker, workers)
	parallel.ForEachWorker(workers, len(cands), func(wi, i int) {
		if state[wi] == nil {
			state[wi] = newWhatIfWorker(inc)
		}
		outs[i] = state[wi].evaluate(clean, cands[i], lambda)
	})
	return outs
}
