package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/experiments"
	"repro/internal/synth"
	"repro/internal/variation"
)

// The incremental analyzers must be invisible to the optimizers: at
// every iteration of a run, the cost the optimizer reports for its
// current sizing (the checkpoint it emits) must be bit-identical to a
// from-scratch analysis of that sizing, and the final Result must agree
// with a from-scratch analysis of the returned design. difftest's
// CheckOptimizer enforces both on the paper's benchmarks, at the serial
// and the concurrent scoring worker counts.

func newOriginal(t *testing.T, name string) (*synth.Design, *variation.Model) {
	t.Helper()
	d, vm, err := experiments.NewDesign(name)
	if err != nil {
		t.Fatalf("NewDesign(%s): %v", name, err)
	}
	if _, err := core.MeanDelayGreedy(d, vm, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return d, vm
}

// checkRun runs the backend under the trajectory oracle and fails
// unless at least one checkpoint was re-analyzed.
func checkRun(t *testing.T, backend string, d *synth.Design, vm *variation.Model, opts core.Options) *core.Result {
	t.Helper()
	n := 0
	opts.Checkpoint = func(core.Checkpoint) { n++ }
	r, err := difftest.CheckOptimizer(backend, d, vm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("%s emitted no checkpoints; trajectory unchecked", backend)
	}
	return r
}

func TestStatisticalGreedyIncrementalEquivalence(t *testing.T) {
	for _, name := range []string{"c432", "alu3"} {
		for _, workers := range []int{1, 4} {
			name, workers := name, workers
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				t.Parallel()
				d, vm := newOriginal(t, name)
				r := checkRun(t, "statgreedy", d, vm, core.Options{Lambda: 9, MaxIters: 12, Workers: workers})
				if r.AnalysisTime <= 0 {
					t.Error("incremental run reported no analysis time")
				}
			})
		}
	}
}

// The cone move exercises the one optimizer path where the iteration-start
// analysis is consulted after tentative configurations have been analyzed,
// so it gets its own equivalence case.
func TestStatisticalGreedyConeMoveIncrementalEquivalence(t *testing.T) {
	d, vm := newOriginal(t, "c432")
	checkRun(t, "statgreedy", d, vm, core.Options{Lambda: 9, MaxIters: 8, ConeMove: true})
}

func TestMeanDelayGreedyIncrementalEquivalence(t *testing.T) {
	for _, name := range []string{"c432", "alu3"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, vm, err := experiments.NewDesign(name)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, "meandelay", d, vm, core.Options{})
		})
	}
}

func TestRecoverAreaIncrementalEquivalence(t *testing.T) {
	d, vm := newOriginal(t, "c432")
	if _, err := core.StatisticalGreedy(d, vm, core.Options{Lambda: 3, MaxIters: 6}); err != nil {
		t.Fatal(err)
	}
	checkRun(t, "recoverarea", d, vm, core.Options{Lambda: 3, SlackFrac: 0.01})
}
