package fassta

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/normal"
	"repro/internal/sta"
)

func TestAnalyzeGlobalMatchesNominalAndBoundsMax(t *testing.T) {
	d, _, vm := setup(t, gen.ALU("alu", 4))
	c := d.Circuit
	for _, approx := range []bool{true, false} {
		r := AnalyzeGlobal(d, vm, approx)
		nominal := sta.Analyze(d)
		if r.STA.MaxArrival != nominal.MaxArrival {
			t.Fatalf("approx=%v: embedded STA %g, want %g", approx, r.STA.MaxArrival, nominal.MaxArrival)
		}
		worstMean := math.Inf(-1)
		for _, po := range c.Outputs {
			worstMean = math.Max(worstMean, r.Node[po].Mean)
		}
		// The statistical max can never sit below its largest input mean,
		// and a circuit of variable gates has a strictly positive sigma.
		if r.Mean < worstMean-1e-9 {
			t.Fatalf("approx=%v: circuit mean %g below worst PO mean %g", approx, r.Mean, worstMean)
		}
		if !(r.Sigma > 0) {
			t.Fatalf("approx=%v: non-positive circuit sigma %g", approx, r.Sigma)
		}
		for i := range c.Gates {
			if c.Gates[i].Fn == circuit.Input && r.Node[i] != (normal.Moments{}) {
				t.Fatalf("approx=%v: primary input %d has moments %+v", approx, i, r.Node[i])
			}
		}
		again := AnalyzeGlobal(d, vm, approx)
		if again.Mean != r.Mean || again.Sigma != r.Sigma {
			t.Fatalf("approx=%v: repeat analysis not bit-identical", approx)
		}
	}
}

func TestAnalyzeGlobalApproxTracksExact(t *testing.T) {
	d, _, vm := setup(t, gen.Comparator("cmp", 8))
	fast := AnalyzeGlobal(d, vm, true)
	exact := AnalyzeGlobal(d, vm, false)
	if rel := math.Abs(fast.Mean-exact.Mean) / exact.Mean; rel > 0.02 {
		t.Fatalf("fast mean %g vs exact %g: %.2f%% apart", fast.Mean, exact.Mean, 100*rel)
	}
	if rel := math.Abs(fast.Sigma-exact.Sigma) / exact.Sigma; rel > 0.10 {
		t.Fatalf("fast sigma %g vs exact %g: %.2f%% apart", fast.Sigma, exact.Sigma, 100*rel)
	}
}

// On a chain no max is ever taken, so the exact-Clark scorer and the
// fast scorer run identical arithmetic and must agree bit for bit.
func TestCostExactEqualsCostWithoutMax(t *testing.T) {
	c := circuit.New("chain")
	prev := c.MustAddGate("a", circuit.Input)
	for i := 0; i < 6; i++ {
		g := c.MustAddGate("", circuit.Not)
		c.MustConnect(prev, g)
		prev = g
	}
	c.MustMarkOutput(prev)
	d, full, vm := setup(t, c)
	target := anyLogicGate(d)
	s := Extract(d, full, vm, target, 2)
	for size := 0; size < d.Lib.NumSizes(d.Kind(target)); size++ {
		for _, lambda := range []float64{0, 3, 9} {
			if got, want := s.CostExact(size, lambda), s.Cost(size, lambda); got != want {
				t.Fatalf("size %d lambda %g: CostExact %v, Cost %v", size, lambda, got, want)
			}
		}
	}
}

func TestCostExactTracksCost(t *testing.T) {
	d, full, vm := setup(t, gen.ALU("alu", 4))
	s := Extract(d, full, vm, anyLogicGate(d), 2)
	for size := 0; size < d.Lib.NumSizes(d.Kind(s.Target)); size++ {
		fast, exact := s.Cost(size, 3), s.CostExact(size, 3)
		if rel := math.Abs(fast-exact) / exact; rel > 0.02 {
			t.Fatalf("size %d: fast %g vs exact %g (%.2f%% apart)", size, fast, exact, 100*rel)
		}
	}
}

// The Extractor's cached topological index must yield exactly the
// subcircuit the package-level Extract builds, for every target, and
// must be rebuilt after a structural edit.
func TestExtractorMatchesExtract(t *testing.T) {
	d, full, vm := setup(t, gen.SEC("sec", 16, true))
	ex := NewExtractor(d)
	ex.Prime()
	same := func(target circuit.GateID) {
		t.Helper()
		got := ex.Extract(full, vm, target, 2)
		want := Extract(d, full, vm, target, 2)
		if len(got.Members) != len(want.Members) || len(got.Outputs) != len(want.Outputs) {
			t.Fatalf("target %d: extractor shape (%d, %d), want (%d, %d)", target,
				len(got.Members), len(got.Outputs), len(want.Members), len(want.Outputs))
		}
		for i := range want.Members {
			if got.Members[i] != want.Members[i] {
				t.Fatalf("target %d: member %d is %d, want %d", target, i, got.Members[i], want.Members[i])
			}
		}
		cur := d.Circuit.Gate(target).SizeIdx
		if g, w := got.Cost(cur, 3), want.Cost(cur, 3); g != w {
			t.Fatalf("target %d: extractor cost %v, want %v", target, g, w)
		}
	}
	checked := 0
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() {
			same(circuit.GateID(i))
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no logic gates")
	}

	// A structural edit bumps the revision; the next Extract re-primes.
	rev := ex.rev
	extra := d.Circuit.MustAddGate("extra", circuit.Not)
	d.Circuit.MustConnect(d.Circuit.Outputs[0], extra)
	if d.Circuit.Revision() == rev {
		t.Fatal("structural edit did not bump the revision")
	}
	same(anyLogicGate(d))
	if ex.rev != d.Circuit.Revision() {
		t.Fatalf("extractor index at revision %d, circuit at %d", ex.rev, d.Circuit.Revision())
	}
	if _, ok := ex.topoPos[extra]; !ok {
		t.Fatal("re-primed index is missing the new gate")
	}
}
