// Package difftest is the differential test harness for the
// incremental timing engines: it drives seeded random resize sequences
// against ssta.Incremental and sta.Incremental, asserting after every
// step that the repaired
// analysis is bit-identical — every node, not just the circuit summary
// — to a from-scratch analysis of the same sizes, and that Rollback
// restores the exact prior state.
//
// The helpers return errors instead of taking a *testing.T so the fuzz
// target and the package tests share one comparison and one driver.
package difftest

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// CompareSTA checks two deterministic analyses for bit-exact equality
// on every per-gate field and the circuit summary.
func CompareSTA(got, want *sta.Result) error {
	if err := eqFloats("sta.Arrival", got.Arrival, want.Arrival); err != nil {
		return err
	}
	if err := eqFloats("sta.Slew", got.Slew, want.Slew); err != nil {
		return err
	}
	if err := eqFloats("sta.Delay", got.Delay, want.Delay); err != nil {
		return err
	}
	if err := eqFloats("sta.InSlew", got.InSlew, want.InSlew); err != nil {
		return err
	}
	if got.MaxArrival != want.MaxArrival {
		return fmt.Errorf("sta.MaxArrival: got %v, want %v", got.MaxArrival, want.MaxArrival)
	}
	if got.WorstPO != want.WorstPO {
		return fmt.Errorf("sta.WorstPO: got %d, want %d", got.WorstPO, want.WorstPO)
	}
	return nil
}

// CompareSSTA checks two FULLSSTA analyses for bit-exact equality: the
// embedded deterministic analysis, every node's arrival PDF and
// moments, every gate's delay moments, and the circuit summary.
func CompareSSTA(got, want *ssta.Result) error {
	if err := CompareSTA(got.STA, want.STA); err != nil {
		return err
	}
	for i := range want.Arrival {
		if !got.Arrival[i].Equal(want.Arrival[i]) {
			return fmt.Errorf("ssta.Arrival[%d]: PDFs differ", i)
		}
		if got.Node[i] != want.Node[i] {
			return fmt.Errorf("ssta.Node[%d]: got %+v, want %+v", i, got.Node[i], want.Node[i])
		}
		if got.GateDelay[i] != want.GateDelay[i] {
			return fmt.Errorf("ssta.GateDelay[%d]: got %+v, want %+v", i, got.GateDelay[i], want.GateDelay[i])
		}
	}
	if !got.CircuitPDF.Equal(want.CircuitPDF) {
		return fmt.Errorf("ssta.CircuitPDF: PDFs differ")
	}
	if got.Mean != want.Mean || got.Sigma != want.Sigma {
		return fmt.Errorf("ssta summary: got (%v, %v), want (%v, %v)",
			got.Mean, got.Sigma, want.Mean, want.Sigma)
	}
	return nil
}

func eqFloats(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d]: got %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// mutator drives one seeded random resize sequence. Each step is one of
// a single Resize, a ResizeAll batch, external size edits followed by a
// Sync, or a mutation immediately undone by Rollback; the caller's
// verify hook runs after every step against a from-scratch analysis.
type mutator struct {
	d     *synth.Design
	rng   *rand.Rand
	logic []circuit.GateID
}

func newMutator(d *synth.Design, seed uint64) *mutator {
	m := &mutator{d: d, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
	c := d.Circuit
	for id := 0; id < c.NumGates(); id++ {
		g := circuit.GateID(id)
		if c.Gate(g).Fn.IsLogic() {
			m.logic = append(m.logic, g)
		}
	}
	return m
}

func (m *mutator) pick() (circuit.GateID, int) {
	g := m.logic[m.rng.IntN(len(m.logic))]
	gate := m.d.Circuit.Gate(g)
	n := m.d.Lib.NumSizes(cells.Kind(gate.CellRef))
	return g, m.rng.IntN(n)
}

// engine abstracts the two incremental engines for the shared driver.
type engine interface {
	Resize(g circuit.GateID, size int) int
	Sync() int
	Rollback()
	ResizeBatch(changes []sizeChange) int
	// Verify compares the engine's repaired state against a
	// from-scratch analysis of the design's current sizes.
	Verify() error
}

type sizeChange struct {
	gate circuit.GateID
	size int
}

// Drive runs steps random mutations on eng, verifying after every step.
// It returns the first verification error, annotated with the step.
func (m *mutator) drive(eng engine, steps int) error {
	for step := 0; step < steps; step++ {
		op := m.rng.IntN(100)
		switch {
		case op < 50: // single resize
			g, s := m.pick()
			eng.Resize(g, s)
		case op < 70: // batched resize
			batch := make([]sizeChange, 2+m.rng.IntN(4))
			for i := range batch {
				g, s := m.pick()
				batch[i] = sizeChange{gate: g, size: s}
			}
			eng.ResizeBatch(batch)
		case op < 85: // external edits + Sync (the optimizer's pattern)
			for i := 0; i < 1+m.rng.IntN(4); i++ {
				g, s := m.pick()
				m.d.Circuit.Gate(g).SizeIdx = s
			}
			eng.Sync()
		default: // mutate, verify, then roll back; the post-step verify
			// below then proves Rollback restored the exact prior state.
			g, s := m.pick()
			eng.Resize(g, s)
			if err := eng.Verify(); err != nil {
				return fmt.Errorf("step %d (pre-rollback): %w", step, err)
			}
			eng.Rollback()
		}
		if err := eng.Verify(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return nil
}

// sstaEngine adapts ssta.Incremental to the driver.
type sstaEngine struct {
	d    *synth.Design
	vm   *variation.Model
	opts ssta.Options
	inc  *ssta.Incremental
}

func (e *sstaEngine) Resize(g circuit.GateID, size int) int { return e.inc.Resize(g, size) }
func (e *sstaEngine) Sync() int                             { return e.inc.Sync() }
func (e *sstaEngine) Rollback()                             { e.inc.Rollback() }
func (e *sstaEngine) ResizeBatch(changes []sizeChange) int {
	batch := make([]ssta.SizeChange, len(changes))
	for i, ch := range changes {
		batch[i] = ssta.SizeChange{Gate: ch.gate, Size: ch.size}
	}
	return e.inc.ResizeAll(batch)
}
func (e *sstaEngine) Verify() error {
	return CompareSSTA(e.inc.Result(), ssta.Analyze(e.d, e.vm, e.opts))
}

// staEngine adapts the deterministic sta.Incremental. It has
// no transactional Rollback; the driver's rollback step is emulated by
// resizing back, which must land on the identical state.
type staEngine struct {
	d        *synth.Design
	inc      *sta.Incremental
	lastGate circuit.GateID
	lastOld  int
}

func (e *staEngine) Resize(g circuit.GateID, size int) int {
	e.lastGate = g
	e.lastOld = e.d.Circuit.Gate(g).SizeIdx
	return e.inc.Resize(g, size)
}
func (e *staEngine) Sync() int { return e.inc.Sync() }
func (e *staEngine) Rollback() {
	e.inc.Resize(e.lastGate, e.lastOld)
}
func (e *staEngine) ResizeBatch(changes []sizeChange) int {
	n := 0
	for _, ch := range changes {
		n += e.inc.Resize(ch.gate, ch.size)
	}
	return n
}
func (e *staEngine) Verify() error {
	return CompareSTA(e.inc.Result(), sta.Analyze(e.d))
}

// DriveSSTA runs a seeded random resize sequence against a FULLSSTA
// incremental engine on d, verifying bit-exactness after every step.
func DriveSSTA(d *synth.Design, vm *variation.Model, opts ssta.Options, steps int, seed uint64) error {
	eng := &sstaEngine{d: d, vm: vm, opts: opts, inc: ssta.NewIncremental(d, vm, opts)}
	return newMutator(d, seed).drive(eng, steps)
}

// DriveSTA runs a seeded random resize sequence against the
// deterministic incremental engine on d, verifying bit-exactness after
// every step.
func DriveSTA(d *synth.Design, steps int, seed uint64) error {
	eng := &staEngine{d: d, inc: sta.NewIncremental(d)}
	return newMutator(d, seed).drive(eng, steps)
}
