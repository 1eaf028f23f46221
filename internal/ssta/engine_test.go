package ssta_test

import (
	"math/rand"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// family is the Table-1 slice the differential tests sweep: small
// enough to keep CI fast, structurally diverse (reconvergence, wide
// datapaths, deep multiply arrays are all represented).
var family = []string{"alu2", "c432", "c499", "c880", "c1355"}

// workerCounts are the level-parallel schedules every full pass must
// reproduce bit for bit.
var workerCounts = []int{1, 2, 4, 8}

func setupISCAS(t testing.TB, name string) (*synth.Design, *variation.Model) {
	t.Helper()
	c, err := gen.ISCASLike(name)
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d, variation.Default(lib)
}

// requireReference asserts got is bit-identical, node by node, to the
// naive from-scratch propagator at the design's current sizes.
func requireReference(t *testing.T, ctx string, got *ssta.Result, d *synth.Design, vm *variation.Model) {
	t.Helper()
	if err := difftest.CompareSSTA(got, difftest.ReferenceSSTA(d, vm, 0)); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

func TestEngineBitIdenticalToReference(t *testing.T) {
	for _, name := range family {
		d, vm := setupISCAS(t, name)
		want := difftest.ReferenceSSTA(d, vm, 0)
		for _, workers := range workerCounts {
			got := ssta.Analyze(d, vm, ssta.Options{Workers: workers})
			if err := difftest.CompareSSTA(got, want); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got.Cost(d, 3) != want.Cost(d, 3) {
				t.Fatalf("%s workers=%d: Cost differs", name, workers)
			}
		}
	}
}

func TestEngineTracksResizes(t *testing.T) {
	for _, workers := range workerCounts {
		d, vm := setupISCAS(t, "c432")
		inc := ssta.NewIncremental(d, vm, ssta.Options{Workers: workers})
		rng := rand.New(rand.NewSource(19))
		logic := logicGates(d)
		for step := 0; step < 5; step++ {
			for k := 0; k < 10; k++ {
				id := logic[rng.Intn(len(logic))]
				d.Circuit.Gate(id).SizeIdx = rng.Intn(d.Lib.NumSizes(d.Kind(id)))
			}
			inc.Sync()
			requireReference(t, "sync", inc.Result(), d, vm)
		}
	}
}

// TestParallelBitExact is the worker-count independence guarantee: the
// level-parallel full pass must reproduce the reference bit-for-bit —
// every node's arrival PDF, every moment pair, and the circuit PDF — for
// any worker count. Anything short of exact equality would make analysis
// results depend on the host's core count.
func TestParallelBitExact(t *testing.T) {
	for _, name := range []string{"c432", "c6288"} {
		d, vm := setupISCAS(t, name)
		want := difftest.ReferenceSSTA(d, vm, 0)
		for _, workers := range workerCounts {
			if err := difftest.CompareSSTA(ssta.Analyze(d, vm, ssta.Options{Workers: workers}), want); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
		}
	}
}

// TestDefaultWorkersMatchesSerial pins the default (Workers: 0, all CPUs)
// to the reference as well — the configuration most callers run under.
func TestDefaultWorkersMatchesSerial(t *testing.T) {
	d, vm := setupISCAS(t, "c880")
	requireReference(t, "default workers", ssta.Analyze(d, vm, ssta.Options{}), d, vm)
	requireReference(t, "default workers engine", ssta.NewIncremental(d, vm, ssta.Options{}).Result(), d, vm)
}

// TestRepairDoesNotAllocate pins the arena engine's steady state: once
// the journal, queue and kernel buffers are warm, a resize and its
// rollback, and an external edit and its Sync, allocate nothing.
func TestRepairDoesNotAllocate(t *testing.T) {
	d, vm := setupISCAS(t, "c880")
	inc := ssta.NewIncremental(d, vm, ssta.Options{Workers: 1})
	logic := logicGates(d)
	g := logic[len(logic)/3]
	gate := d.Circuit.Gate(g)
	orig, alt := gate.SizeIdx, (gate.SizeIdx+1)%d.Lib.NumSizes(d.Kind(g))

	resize := func() {
		if inc.Resize(g, alt) == 0 {
			t.Fatal("resize touched nothing")
		}
		inc.Rollback()
	}
	sync := func() {
		gate.SizeIdx = alt
		inc.Sync()
		gate.SizeIdx = orig
		inc.Sync()
	}
	for name, fn := range map[string]func(){"Resize+Rollback": resize, "edit+Sync": sync} {
		fn() // warm up
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s allocates %v per run, want 0", name, n)
		}
	}
	requireReference(t, "after repairs", inc.Result(), d, vm)
}

// TestAnalyzeAllocationBound keeps the serial full pass off the
// per-node heap: on c6288 (~3k gates) the arena engine makes a few
// dozen allocations; one PDF per node would be thousands.
func TestAnalyzeAllocationBound(t *testing.T) {
	d, vm := setupISCAS(t, "c6288")
	n := testing.AllocsPerRun(2, func() { ssta.Analyze(d, vm, ssta.Options{Workers: 1}) })
	if n >= 1000 {
		t.Fatalf("Analyze(c6288, Workers=1) makes %v allocations, want < 1000", n)
	}
}

func logicGates(d *synth.Design) []circuit.GateID {
	var ids []circuit.GateID
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn != circuit.Input {
			ids = append(ids, circuit.GateID(i))
		}
	}
	return ids
}

// randomCandidates draws K candidate sizings: mostly single-gate resizes
// (the optimizer's probe shape), some multi-gate batches, and one
// guaranteed no-op.
func randomCandidates(rng *rand.Rand, d *synth.Design, k int) [][]ssta.SizeChange {
	logic := logicGates(d)
	cands := make([][]ssta.SizeChange, 0, k)
	for len(cands) < k {
		var ch []ssta.SizeChange
		for n := 1 + rng.Intn(3); n > 0; n-- {
			id := logic[rng.Intn(len(logic))]
			ch = append(ch, ssta.SizeChange{Gate: id, Size: rng.Intn(d.Lib.NumSizes(d.Kind(id)))})
		}
		cands = append(cands, ch)
	}
	// A no-op candidate must come back Changed=false with clean numbers.
	id := logic[0]
	cands[len(cands)-1] = []ssta.SizeChange{{Gate: id, Size: d.Circuit.Gate(id).SizeIdx}}
	return cands
}

// applySequentially computes the ground-truth outcome of one candidate
// by actually resizing through the engine and rolling back.
func applySequentially(d *synth.Design, inc *ssta.Incremental, lambda float64, ch []ssta.SizeChange) ssta.WhatIfOutcome {
	before := inc.Evals()
	n := inc.ResizeAll(ch)
	r := inc.Result()
	out := ssta.WhatIfOutcome{
		Mean:       r.Mean,
		Sigma:      r.Sigma,
		Cost:       r.Cost(d, lambda),
		MaxArrival: r.STA.MaxArrival,
		Touched:    int(inc.Evals() - before),
		Changed:    n > 0,
	}
	inc.Rollback()
	return out
}

func TestBatchWhatIfMatchesSequentialResizes(t *testing.T) {
	const lambda = 3.0
	for _, name := range family {
		d, vm := setupISCAS(t, name)
		rng := rand.New(rand.NewSource(int64(len(name)) * 31))
		inc := ssta.NewIncremental(d, vm, ssta.Options{Workers: 1})
		cands := randomCandidates(rng, d, 12)

		want := make([]ssta.WhatIfOutcome, len(cands))
		for i, ch := range cands {
			want[i] = applySequentially(d, inc, lambda, ch)
		}
		for _, workers := range []int{1, 4} {
			got := inc.BatchWhatIf(cands, lambda, workers)
			for i := range got {
				if got[i].Mean != want[i].Mean || got[i].Sigma != want[i].Sigma ||
					got[i].Cost != want[i].Cost || got[i].MaxArrival != want[i].MaxArrival {
					t.Fatalf("%s workers=%d cand %d: outcome %+v, want %+v", name, workers, i, got[i], want[i])
				}
				if got[i].Touched != want[i].Touched {
					t.Fatalf("%s workers=%d cand %d: touched %d, want %d", name, workers, i, got[i].Touched, want[i].Touched)
				}
			}
		}
	}
}

func TestBatchWhatIfLeavesEngineClean(t *testing.T) {
	d, vm := setupISCAS(t, "c499")
	inc := ssta.NewIncremental(d, vm, ssta.Options{Workers: 1})
	sizes := d.Circuit.SizeSnapshot()

	rng := rand.New(rand.NewSource(77))
	inc.BatchWhatIf(randomCandidates(rng, d, 8), 3, 0)

	for i, s := range d.Circuit.SizeSnapshot() {
		if s != sizes[i] {
			t.Fatalf("BatchWhatIf moved gate %d size", i)
		}
	}
	requireReference(t, "engine after batch", inc.Result(), d, vm)
}

func TestBatchWhatIfNoOpCandidate(t *testing.T) {
	d, vm := setupISCAS(t, "alu2")
	inc := ssta.NewIncremental(d, vm, ssta.Options{Workers: 1})
	id := logicGates(d)[3]
	out := inc.BatchWhatIf([][]ssta.SizeChange{
		{{Gate: id, Size: d.Circuit.Gate(id).SizeIdx}},
	}, 3, 1)[0]
	if out.Changed || out.Touched != 0 {
		t.Fatalf("no-op candidate reported %+v", out)
	}
	if out.Mean != inc.Result().Mean || out.Sigma != inc.Result().Sigma {
		t.Fatal("no-op candidate did not return the clean summary")
	}
}

func TestBatchWhatIfStaleSizesPanics(t *testing.T) {
	d, vm := setupISCAS(t, "alu2")
	inc := ssta.NewIncremental(d, vm, ssta.Options{Workers: 1})
	id := logicGates(d)[0]
	d.Circuit.Gate(id).SizeIdx++
	defer func() {
		if recover() == nil {
			t.Fatal("BatchWhatIf on a stale engine did not panic")
		}
	}()
	inc.BatchWhatIf([][]ssta.SizeChange{{{Gate: id, Size: 0}}}, 3, 1)
}
