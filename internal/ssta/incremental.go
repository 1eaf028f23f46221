package ssta

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/parallel"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// SizeChange is one gate resize in a ResizeAll batch.
type SizeChange struct {
	Gate circuit.GateID
	Size int
}

// Incremental is the FULLSSTA engine. Construction runs the full pass;
// afterwards it maintains the analysis across gate resizes without full
// recomputation. A resize dirties the gate (its cell changed) and its
// fanin drivers (their load changed), then repairs level-ordered
// through the fanout cone, stopping early at nodes whose deterministic
// arrival/slew AND arrival PDF come out bit-identical to their previous
// values.
//
// The cutoff is exact, not a tolerance: every per-node computation is a
// deterministic pure function of the fanin values and the gate's cell,
// so bit-equal inputs reproduce bit-equal outputs, and by induction a
// pruned cone is exactly what a from-scratch analysis would recompute.
// The differential harness in internal/difftest asserts this
// bit-for-bit on every node after every step, against its own naive
// reference propagator.
//
// Every node PDF lives in one dpdf.Arena and is repaired in place; the
// Result returned by Result() is owned by the engine, its Arrival and
// CircuitPDF are views into that arena, and all of it is updated in
// place. Callers must not retain its fields (PDFs included) across
// mutating calls.
//
// Each state-changing call (Resize, ResizeAll, Sync) implicitly commits
// the previous transaction and opens a new one; Rollback undoes the
// most recent state-changing call — sizes and analysis both — without
// re-analysis. Calls that change nothing (resize to the current size,
// Sync with no diffs) leave the open transaction untouched. Once the
// journal and queue buffers are warm, repairs and rollbacks allocate
// nothing.
type Incremental struct {
	d   *synth.Design
	vm  *variation.Model
	pts int
	r   *Result
	// arena holds every node's arrival PDF (slot = GateID) and the
	// circuit PDF (slot NumGates()); r.Arrival and r.CircuitPDF are
	// views into it, re-sliced whenever a slot is rewritten.
	arena *dpdf.Arena
	level []int32
	rev   int
	sc    scratch

	// Repair state, built by NewIncremental only: Analyze drops the
	// engine after the full pass.
	queue *circuit.LevelQueue
	// sizes is the engine's record of every gate's size as of the last
	// repair, diffed by Sync after external batch edits.
	sizes []int
	// evals counts re-evaluations per node — the observable the
	// "fanout-disjoint resize leaves the node untouched" property tests
	// assert on.
	evals      []int64
	totalEvals int64

	// Transaction journal: every touched node's prior state, saved once
	// per transaction (its PDF into the same slot of saved), plus the
	// size edits and the circuit summary.
	journal   []nodeSave
	journaled []bool
	saved     *dpdf.Arena // allocated by the first transaction
	sizeLog   []sizeSave
	summary   summarySave
	hasTxn    bool
}

type nodeSave struct {
	id        circuit.GateID
	node      normal.Moments
	gateDelay normal.Moments
	staArr    float64
	staSlew   float64
	staDelay  float64
	staInSlew float64
}

type sizeSave struct {
	id      circuit.GateID
	oldSize int
}

type summarySave struct {
	mean, sigma float64
	maxArrival  float64
	worstPO     circuit.GateID
}

// scratch is one goroutine's kernel workspace: the dpdf buffers plus
// the gathered fanin PDFs of the gate being evaluated.
type scratch struct {
	kern dpdf.Scratch
	ops  []dpdf.PDF
}

// gate is the one per-gate FULLSSTA kernel: Max over the gathered fanin
// PDFs (s.ops), plus the gate delay N(delay, sigma^2), written into
// slot of dst; it returns the slot's moments. The full pass, the cone
// repair and the BatchWhatIf overlay all evaluate gates here.
func (s *scratch) gate(dst *dpdf.Arena, slot int, delay, sigma float64, pts int) normal.Moments {
	temp := s.kern.TempNormal(delay, sigma, pts)
	if len(s.ops) == 1 {
		// MaxN over one fanin is that fanin verbatim; fuse into the Sum.
		dst.SumInto(&s.kern, slot, s.ops[0], temp, pts)
	} else {
		dst.MaxNInto(&s.kern, slot, s.ops, pts)
		dst.SumInto(&s.kern, slot, dst.View(slot), temp, pts)
	}
	return dst.Moments(slot)
}

// sink writes the circuit-delay PDF, Max over the gathered PO PDFs, into
// slot of dst and returns its mean and sigma.
func (s *scratch) sink(dst *dpdf.Arena, slot, pts int) (mean, sigma float64) {
	dst.MaxNInto(&s.kern, slot, s.ops, pts)
	p := dst.View(slot)
	return p.Mean(), p.Sigma()
}

// newEngine runs the full pass: the nominal STA, then every node's
// arrival PDF in topological order, or level by level over
// opts.Workers goroutines (bit-identical either way).
func newEngine(d *synth.Design, vm *variation.Model, opts Options) *Incremental {
	c := d.Circuit
	n := c.NumGates()
	pts := opts.points()
	// Levels also warms the circuit's lazy topo/level caches before any
	// goroutine can race on them.
	lv, depth := c.Levels()
	inc := &Incremental{
		d:     d,
		vm:    vm,
		pts:   pts,
		arena: dpdf.NewArena(n+1, max(pts, 2)), // TempNormal emits >= 2 points
		level: lv,
		rev:   c.Revision(),
		r: &Result{
			STA:       sta.Analyze(d),
			Arrival:   make([]dpdf.PDF, n),
			Node:      make([]normal.Moments, n),
			GateDelay: make([]normal.Moments, n),
		},
	}
	if workers := parallel.Resolve(opts.Workers); workers <= 1 {
		for _, id := range c.MustTopoOrder() {
			inc.place(&inc.sc, id)
		}
	} else {
		buckets := make([][]circuit.GateID, depth+1)
		for _, id := range c.MustTopoOrder() {
			buckets[lv[id]] = append(buckets[lv[id]], id)
		}
		sc := make([]scratch, workers)
		parallel.Levels(workers, buckets, func(w int, id circuit.GateID) {
			inc.place(&sc[w], id)
		})
	}
	inc.refreshSummary()
	return inc
}

// NewIncremental builds the engine: one full pass, plus the repair
// state.
func NewIncremental(d *synth.Design, vm *variation.Model, opts Options) *Incremental {
	inc := newEngine(d, vm, opts)
	n := d.Circuit.NumGates()
	inc.queue = circuit.NewLevelQueue(n)
	inc.sizes = d.Circuit.SizeSnapshot()
	inc.evals = make([]int64, n)
	inc.journaled = make([]bool, n)
	return inc
}

// Result returns the up-to-date analysis, owned by the engine.
func (inc *Incremental) Result() *Result { return inc.r }

// Evals returns the total number of node re-evaluations performed by
// the engine since construction.
func (inc *Incremental) Evals() int64 { return inc.totalEvals }

// NodeEvals returns how often gate g has been re-evaluated since
// construction.
func (inc *Incremental) NodeEvals(g circuit.GateID) int64 { return inc.evals[g] }

// Resize sets gate g to sizeIdx and repairs the analysis, returning the
// number of gates re-evaluated. Resizing to the current size is a no-op
// and does not open a new transaction.
func (inc *Incremental) Resize(g circuit.GateID, sizeIdx int) int {
	inc.checkRev()
	gate := inc.d.Circuit.Gate(g)
	if gate.SizeIdx == sizeIdx {
		return 0
	}
	inc.begin()
	inc.sizeLog = append(inc.sizeLog, sizeSave{id: g, oldSize: gate.SizeIdx})
	gate.SizeIdx = sizeIdx
	inc.sizes[g] = sizeIdx
	inc.seed(g)
	return inc.propagate()
}

// ResizeAll applies a batch of resizes as ONE transaction (the
// optimizer's path-step) and repairs the union cone in a single
// level-ordered pass, returning the number of gates re-evaluated.
func (inc *Incremental) ResizeAll(changes []SizeChange) int {
	inc.checkRev()
	c := inc.d.Circuit
	dirty := false
	for _, ch := range changes {
		if c.Gate(ch.Gate).SizeIdx != ch.Size {
			dirty = true
			break
		}
	}
	if !dirty {
		return 0
	}
	inc.begin()
	for _, ch := range changes {
		gate := c.Gate(ch.Gate)
		if gate.SizeIdx == ch.Size {
			continue
		}
		inc.sizeLog = append(inc.sizeLog, sizeSave{id: ch.Gate, oldSize: gate.SizeIdx})
		gate.SizeIdx = ch.Size
		inc.sizes[ch.Gate] = ch.Size
		inc.seed(ch.Gate)
	}
	return inc.propagate()
}

// Sync diffs the circuit's current sizes against the engine's record
// and repairs every externally-edited gate's cone as one transaction.
// It is the catch-all entry point for callers that mutate SizeIdx
// directly (the optimizers do, in batches). A later Rollback restores
// the pre-Sync sizes, undoing the external edits too.
func (inc *Incremental) Sync() int {
	inc.checkRev()
	c := inc.d.Circuit
	dirty := false
	for id := 0; id < c.NumGates(); id++ {
		if c.Gate(circuit.GateID(id)).SizeIdx != inc.sizes[id] {
			dirty = true
			break
		}
	}
	if !dirty {
		return 0
	}
	inc.begin()
	for id := 0; id < c.NumGates(); id++ {
		g := circuit.GateID(id)
		if s := c.Gate(g).SizeIdx; s != inc.sizes[id] {
			inc.sizeLog = append(inc.sizeLog, sizeSave{id: g, oldSize: inc.sizes[id]})
			inc.sizes[id] = s
			inc.seed(g)
		}
	}
	return inc.propagate()
}

// Rollback undoes the most recent state-changing call: circuit sizes
// and every journaled node revert to their exact prior values, without
// re-analysis. A second Rollback (or one before any change) is a no-op.
func (inc *Incremental) Rollback() {
	inc.checkRev()
	if !inc.hasTxn {
		return
	}
	c := inc.d.Circuit
	// Reverse order, in case one gate was logged twice in a batch.
	for i := len(inc.sizeLog) - 1; i >= 0; i-- {
		s := inc.sizeLog[i]
		c.Gate(s.id).SizeIdx = s.oldSize
		inc.sizes[s.id] = s.oldSize
	}
	r := inc.r
	for _, j := range inc.journal {
		inc.arena.Set(int(j.id), inc.saved.View(int(j.id)))
		r.Arrival[j.id] = inc.arena.View(int(j.id))
		r.Node[j.id] = j.node
		r.GateDelay[j.id] = j.gateDelay
		r.STA.Arrival[j.id] = j.staArr
		r.STA.Slew[j.id] = j.staSlew
		r.STA.Delay[j.id] = j.staDelay
		r.STA.InSlew[j.id] = j.staInSlew
		inc.journaled[j.id] = false
	}
	inc.journal = inc.journal[:0]
	inc.sizeLog = inc.sizeLog[:0]
	top := c.NumGates()
	inc.arena.Set(top, inc.saved.View(top))
	r.CircuitPDF = inc.arena.View(top)
	r.Mean = inc.summary.mean
	r.Sigma = inc.summary.sigma
	r.STA.MaxArrival = inc.summary.maxArrival
	r.STA.WorstPO = inc.summary.worstPO
	inc.hasTxn = false
}

func (inc *Incremental) checkRev() {
	if inc.rev != inc.d.Circuit.Revision() {
		panic("ssta: circuit structure changed under Incremental; rebuild it")
	}
}

// begin commits the previous transaction (drops its journal) and opens
// a new one, snapshotting the circuit-level summary.
func (inc *Incremental) begin() {
	for _, j := range inc.journal {
		inc.journaled[j.id] = false
	}
	inc.journal = inc.journal[:0]
	inc.sizeLog = inc.sizeLog[:0]
	if inc.saved == nil {
		inc.saved = dpdf.NewArena(inc.arena.Nodes(), inc.arena.Stride())
	}
	top := inc.d.Circuit.NumGates()
	inc.saved.Set(top, inc.arena.View(top))
	r := inc.r
	inc.summary = summarySave{
		mean:       r.Mean,
		sigma:      r.Sigma,
		maxArrival: r.STA.MaxArrival,
		worstPO:    r.STA.WorstPO,
	}
	inc.hasTxn = true
}

// seed dirties the resized gate (its cell changed) and its drivers
// (their load changed — for a PI driver the deterministic arrival
// itself depends on the load).
func (inc *Incremental) seed(g circuit.GateID) {
	inc.queue.Push(g, inc.level[g])
	for _, f := range inc.d.Circuit.Gate(g).Fanin {
		inc.queue.Push(f, inc.level[f])
	}
}

// save journals a node's prior state, once per transaction.
func (inc *Incremental) save(id circuit.GateID) {
	if inc.journaled[id] {
		return
	}
	inc.journaled[id] = true
	inc.saved.Set(int(id), inc.arena.View(int(id)))
	r := inc.r
	inc.journal = append(inc.journal, nodeSave{
		id:        id,
		node:      r.Node[id],
		gateDelay: r.GateDelay[id],
		staArr:    r.STA.Arrival[id],
		staSlew:   r.STA.Slew[id],
		staDelay:  r.STA.Delay[id],
		staInSlew: r.STA.InSlew[id],
	})
}

func (inc *Incremental) propagate() int {
	c := inc.d.Circuit
	touched := 0
	anyChanged := false
	for {
		id, ok := inc.queue.Pop()
		if !ok {
			break
		}
		touched++
		inc.evals[id]++
		inc.totalEvals++
		if inc.recompute(id) {
			anyChanged = true
			for _, fo := range c.Gate(id).Fanout {
				inc.queue.Push(fo, inc.level[fo])
			}
		}
	}
	if anyChanged {
		inc.refreshSummary()
	}
	return touched
}

// recompute re-derives one node — the deterministic STA part first
// (mirroring sta.Analyze), then the arrival PDF through place — and
// reports whether anything a downstream node reads (deterministic
// arrival/slew, the arrival PDF) changed. The level-ordered queue pops
// a node at most once per transaction, so its journaled state is its
// previous value.
func (inc *Incremental) recompute(id circuit.GateID) bool {
	inc.save(id)
	d := inc.d
	r := inc.r
	g := d.Circuit.Gate(id)

	if g.Fn == circuit.Input {
		newArr := d.Lib.PrimaryInputRes * d.Load(id)
		newSlew := d.Lib.PrimaryInputSlew
		changed := newArr != r.STA.Arrival[id] || newSlew != r.STA.Slew[id]
		r.STA.Arrival[id] = newArr
		r.STA.Slew[id] = newSlew
		// The statistical arrival at a PI is the degenerate Point(0)
		// regardless of load; only the deterministic view moves.
		return changed
	}

	var fArr, fSlew float64
	for _, f := range g.Fanin {
		if r.STA.Arrival[f] > fArr {
			fArr = r.STA.Arrival[f]
		}
		if r.STA.Slew[f] > fSlew {
			fSlew = r.STA.Slew[f]
		}
	}
	cell := d.Cell(id)
	load := d.Load(id)
	newDelay := cell.Delay.Lookup(fSlew, load)
	newSlew := cell.OutSlew.Lookup(fSlew, load)
	newArr := fArr + newDelay
	changed := newArr != r.STA.Arrival[id] || newSlew != r.STA.Slew[id]
	r.STA.InSlew[id] = fSlew
	r.STA.Delay[id] = newDelay
	r.STA.Slew[id] = newSlew
	r.STA.Arrival[id] = newArr

	inc.place(&inc.sc, id)
	return changed || !inc.arena.Equal(int(id), inc.saved.View(int(id)))
}

// place evaluates node id's arrival PDF from its fanins' slots at the
// gate's current STA delay and publishes it (and its moments) into the
// Result. A PI's statistical arrival is Point(0).
func (inc *Incremental) place(s *scratch, id circuit.GateID) {
	g := inc.d.Circuit.Gate(id)
	slot := int(id)
	if g.Fn == circuit.Input {
		inc.arena.SetPoint(slot, 0)
	} else {
		delay := inc.r.STA.Delay[id]
		sigma := inc.vm.Sigma(inc.d.Cell(id), delay)
		inc.r.GateDelay[id] = normal.Moments{Mean: delay, Var: sigma * sigma}
		s.ops = s.ops[:0]
		for _, f := range g.Fanin {
			s.ops = append(s.ops, inc.arena.View(int(f)))
		}
		inc.r.Node[id] = s.gate(inc.arena, slot, delay, sigma, inc.pts)
	}
	inc.r.Arrival[id] = inc.arena.View(slot)
}

// refreshSummary recomputes the circuit-level summary exactly as
// sta.Analyze does for the deterministic part, plus the circuit PDF.
func (inc *Incremental) refreshSummary() {
	c := inc.d.Circuit
	r := inc.r
	r.STA.MaxArrival = math.Inf(-1)
	r.STA.WorstPO = circuit.None
	for _, po := range c.Outputs {
		if r.STA.Arrival[po] > r.STA.MaxArrival {
			r.STA.MaxArrival = r.STA.Arrival[po]
			r.STA.WorstPO = po
		}
	}
	if len(c.Outputs) == 0 {
		r.STA.MaxArrival = 0
	}
	s := &inc.sc
	s.ops = s.ops[:0]
	for _, po := range c.Outputs {
		s.ops = append(s.ops, inc.arena.View(int(po)))
	}
	top := c.NumGates()
	r.Mean, r.Sigma = s.sink(inc.arena, top, inc.pts)
	r.CircuitPDF = inc.arena.View(top)
}
