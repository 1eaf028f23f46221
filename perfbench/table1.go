package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cells"
	"repro/internal/circuitlint"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// table1 is the paper's flow, the one experiments.Table1For runs: per
// circuit, mean-delay sizing (the starting point), then
// StatisticalGreedy + RecoverArea at lambda 3 and, warm-started, at
// lambda 9, then a final FULLSSTA. The circuits are the 13 ISCAS-like
// ones plus seeded random DAGs of about 2k gates in all, so that a
// held-out seed changes the input. One operation is one circuit's flow.
type table1 struct {
	cfg   config
	vm    *variation.Model
	bases []*synth.Design // freshly mapped, one per circuit
	first map[string]flowAnswer
}

// table1DAGs is how many seeded random DAGs share table1DAGGates.
const table1DAGs = 8

// Table 1's sigma weights and the area-recovery slack Table1For uses.
var (
	table1Lambdas = [2]float64{3, 9}
	table1Slack   = 0.003
)

func newTable1(cfg config) *table1 { return &table1{cfg: cfg} }

func (w *table1) setup() error {
	lib := cells.Default90nm()
	w.vm = variation.Default(lib)
	names := w.cfg.size.table1Circuits
	if names == nil {
		names = gen.ISCASNames()
	}
	w.bases = w.bases[:0]
	for _, name := range names {
		c, err := gen.ISCASLike(name)
		if err != nil {
			return err
		}
		d, err := synth.Map(c, lib)
		if err != nil {
			return fmt.Errorf("map %s: %w", name, err)
		}
		w.bases = append(w.bases, d)
	}
	// The seeded logic is split over several DAGs so that the seed moves
	// the sweep's total work less than one large DAG would.
	n := w.cfg.size.table1DAGGates / table1DAGs
	for k := 0; k < table1DAGs; k++ {
		dag := gen.RandomDAG(fmt.Sprintf("dag%d_s%d_%d", n, w.cfg.seed, k), max(n/32, 8), n, max(n/64, 4), w.cfg.seed*table1DAGs+int64(k))
		d, err := synth.Map(dag, lib)
		if err != nil {
			return fmt.Errorf("map %s: %w", dag.Name, err)
		}
		w.bases = append(w.bases, d)
	}
	w.first = make(map[string]flowAnswer)
	return nil
}

func (w *table1) close() {}

func (w *table1) opts(lambda float64, workers int) core.Options {
	return core.Options{Lambda: lambda, Workers: workers, Incremental: true}
}

func (w *table1) sstaOpts() ssta.Options { return ssta.Options{Workers: coreWorkers} }

// flowOut is everything one circuit's flow produced, kept for the checks
// and the per-layer metrics.
type flowOut struct {
	base    *synth.Design
	ms      float64
	md      *core.Result
	mdSizes []int
	sg      [2]*core.Result
	sgStart [2][]int // sizing each StatisticalGreedy call started from
	sgSizes [2][]int // sizing it returned
	raSaved [2]float64
	raSizes [2][]int
	final   *ssta.Result
	f0      *ssta.Result
	area0   float64
	area    float64

	mdMs, sgMs, raMs float64
	allocBytes       uint64
	opTiming
	seeded bool // one of the seeded DAGs
}

// flowAnswer is what must repeat bit for bit on every sweep.
type flowAnswer struct {
	mean, sigma, area float64
}

func clone(d *synth.Design) *synth.Design {
	return &synth.Design{Circuit: d.Circuit.Clone(), Lib: d.Lib}
}

// flow runs one circuit under parent. alloc, when non-nil, measures what
// the optimizer calls allocate (traced runs only).
func (w *table1) flow(base *synth.Design, parent span, alloc *allocCounter) (*flowOut, error) {
	out := &flowOut{base: base}
	sp := parent.child("table1.circuit", base.Circuit.Name)
	// call times fn under a child span and adds its time to *acc.
	call := func(name string, acc *float64, fn func() error) error {
		var b0 uint64
		if alloc != nil {
			b0, _ = alloc.read()
		}
		s := sp.child(name, "")
		err := fn()
		*acc += ms(s.stop())
		if alloc != nil {
			b1, _ := alloc.read()
			out.allocBytes += b1 - b0
		}
		return err
	}
	var analyzeMs float64
	d := clone(base)
	err := call("core.meandelay", &out.mdMs, func() (err error) {
		out.md, err = core.MeanDelayGreedy(d, w.vm, w.opts(0, coreWorkers))
		return err
	})
	if err != nil {
		return nil, err
	}
	out.mdSizes = d.Circuit.SizeSnapshot()
	_ = call("ssta.analyze", &analyzeMs, func() error {
		out.f0 = ssta.Analyze(d, w.vm, w.sstaOpts())
		return nil
	})
	out.area0 = d.Area()
	prev := d
	for i, lambda := range table1Lambdas {
		dd := clone(prev)
		o := w.opts(lambda, coreWorkers)
		out.sgStart[i] = dd.Circuit.SizeSnapshot()
		err := call("core.statgreedy", &out.sgMs, func() (err error) {
			out.sg[i], err = core.StatisticalGreedy(dd, w.vm, o)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.sgSizes[i] = dd.Circuit.SizeSnapshot()
		err = call("core.recoverarea", &out.raMs, func() (err error) {
			out.raSaved[i], err = core.RecoverArea(dd, w.vm, o, table1Slack)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.raSizes[i] = dd.Circuit.SizeSnapshot()
		prev = dd
	}
	_ = call("ssta.analyze", &analyzeMs, func() error {
		out.final = ssta.Analyze(prev, w.vm, w.sstaOpts())
		return nil
	})
	out.area = prev.Area()
	out.ms = ms(sp.stop())
	return out, nil
}

// check verifies one flow outside the timed region: every optimizer
// result against difftest's from-scratch re-analysis oracle, the
// area-recovery contract, the final analysis, and bit-exact agreement
// with the first sweep.
func (w *table1) check(out *flowOut) error {
	name := out.base.Circuit.Name
	at := func(sizes []int) *synth.Design {
		d := clone(out.base)
		d.Circuit.RestoreSizes(sizes)
		return d
	}
	if err := difftest.CheckOptimizerResult("meandelay", at(out.mdSizes), w.vm, w.opts(0, coreWorkers), out.md); err != nil {
		return err
	}
	sgSizes := out.sgSizes
	if w.cfg.fault == "sizes" {
		sgSizes[1] = perturbSizes(out.base, sgSizes[1])
	}
	for i, lambda := range table1Lambdas {
		o := w.opts(lambda, coreWorkers)
		if err := difftest.CheckOptimizerResult("statgreedy", at(sgSizes[i]), w.vm, o, out.sg[i]); err != nil {
			return fmt.Errorf("lambda %g: %w", lambda, err)
		}
		// RecoverArea may give back at most its slack and must save
		// exactly the area it reports.
		d := at(out.raSizes[i])
		r := ssta.Analyze(d, w.vm, w.sstaOpts())
		if budget := out.sg[i].Final.Cost * (1 + table1Slack); r.Cost(d, lambda) > budget*(1+1e-12) {
			return fmt.Errorf("lambda %g: recover-area cost %g exceeds budget %g", lambda, r.Cost(d, lambda), budget)
		}
		if got, want := d.Area(), out.sg[i].Final.Area-out.raSaved[i]; math.Abs(got-want) > 1e-9*want {
			return fmt.Errorf("lambda %g: recover-area left area %g, reported %g", lambda, got, want)
		}
	}
	if !finite(out.final.Mean, out.final.Sigma) || out.final.Sigma <= 0 {
		return fmt.Errorf("final analysis moments (%g, %g)", out.final.Mean, out.final.Sigma)
	}
	xs, ps := out.final.CircuitPDF.Support()
	if diags := circuitlint.Errors(circuitlint.LintPDF(xs, ps)); len(diags) > 0 {
		return fmt.Errorf("final circuit PDF: %s", diags[0].Msg)
	}
	ans := flowAnswer{out.final.Mean, out.final.Sigma, out.area}
	if prev, ok := w.first[name]; !ok {
		w.first[name] = ans
	} else if prev != ans {
		return fmt.Errorf("answer %+v differs from the first sweep's %+v", ans, prev)
	}
	return nil
}

// perturbSizes returns sizes with one logic gate moved by one size step.
func perturbSizes(d *synth.Design, sizes []int) []int {
	s := append([]int(nil), sizes...)
	for i := range s {
		if !d.Circuit.Gates[i].Fn.IsLogic() {
			continue
		}
		if s[i] > 0 {
			s[i]--
		} else {
			s[i]++
		}
		break
	}
	return s
}

// sweep runs every circuit once. Checks and the live-heap reading run
// between flows, outside each flow's span.
func (w *table1) sweep(root span, alloc *allocCounter, rep *report) (outs []*flowOut, wallS float64) {
	for i, base := range w.bases {
		rep.attempted++
		out, err := w.flow(base, root, alloc)
		if err == nil {
			err = w.check(out)
		}
		if err != nil {
			rep.failed++
			rep.fail("table1 %s: %v", base.Circuit.Name, err)
		}
		if out != nil {
			out.opTiming = opTiming{ms: out.ms, heapMB: liveHeapMB()}
			out.seeded = i >= len(w.bases)-table1DAGs
			outs = append(outs, out)
			wallS += out.ms / 1000
		}
	}
	return outs, wallS
}

// measure counts the seeded DAGs as one operation, the seeded block: the
// eight small flows sit in the middle of the circuit-time distribution,
// so counted apart they would let the seed pick the median, while their
// sum barely moves with it.
func (w *table1) measure(d time.Duration, rep *report) error {
	var firstOuts []*flowOut
	fixed := len(w.bases) - table1DAGs
	walls := measurePasses(d, fixed+1, rep, func() []opTiming {
		outs, _ := w.sweep(span{}, nil, rep)
		if firstOuts == nil {
			firstOuts = outs
		}
		var ts []opTiming
		var block opTiming
		for _, o := range outs {
			if o.seeded {
				block.ms += o.ms
				block.heapMB = max(block.heapMB, o.heapMB)
			} else {
				ts = append(ts, o.opTiming)
			}
		}
		return append(ts, block)
	})
	rep.add("table1_wall_s", median(walls), "s", fmt.Sprintf("median of %d sweeps over %d circuits", len(walls), len(w.bases)))
	w.quality(firstOuts, rep)
	return nil
}

// quality prints the paper's figures: mean sigma reduction and area
// increase at lambda 9 against the mean-delay start.
func (w *table1) quality(outs []*flowOut, rep *report) {
	var dSigma, dArea []float64
	for _, o := range outs {
		ds := -100 * (o.final.Sigma - o.f0.Sigma) / o.f0.Sigma
		da := 100 * (o.area - o.area0) / o.area0
		dSigma = append(dSigma, ds)
		dArea = append(dArea, da)
		rep.add("table1."+o.base.Circuit.Name, o.ms, "ms",
			fmt.Sprintf("gates=%d sigma %+.1f%% area %+.1f%%", o.base.Circuit.NumLogicGates(), -ds, da))
	}
	rep.add("sigma_reduction_pct", mean(dSigma), "%", "mean over circuits at lambda 9 (paper: 72)")
	rep.add("area_increase_pct", mean(dArea), "%", "mean over circuits at lambda 9 (paper: 20)")
}

func (w *table1) traced(tr *tracer, rep *report) (untracedS, tracedS float64, lanes int, err error) {
	_, untracedS = w.sweep(span{}, nil, rep)
	root := tr.start("table1", 0, "table1.pass", "")
	outs, tracedS := w.sweep(root, newAllocCounter(), rep)
	root.stop()

	var mdMs, sgMs, raMs, analysisMs, scoringMs, allocB float64
	var iters, sgIters, evals, nodeEvals, resized, pathLen int64
	for _, o := range outs {
		mdMs += o.mdMs
		sgMs += o.sgMs
		raMs += o.raMs
		allocB += float64(o.allocBytes)
		for _, r := range []*core.Result{o.md, o.sg[0], o.sg[1]} {
			analysisMs += ms(r.AnalysisTime)
			scoringMs += ms(r.Runtime - r.AnalysisTime)
			iters += int64(r.Iterations)
			evals += r.Evals
			nodeEvals += r.NodeEvals
		}
		for _, r := range o.sg {
			sgIters += int64(r.Iterations)
			for _, h := range r.History {
				resized += int64(h.Resized)
				pathLen += int64(h.PathLen)
			}
		}
	}
	m := rep.metrics
	m["core.meandelay_ms"] = mdMs
	m["core.statgreedy_ms"] = sgMs
	m["core.recoverarea_ms"] = raMs
	m["core.ms_per_iteration"] = sgMs / float64(max(sgIters, 1))
	m["core.analysis_ms"] = analysisMs
	m["core.scoring_ms"] = scoringMs
	m["core.iterations"] = float64(iters)
	m["core.evals"] = float64(evals)
	m["core.node_evals"] = float64(nodeEvals)
	m["core.alloc_mb"] = allocB / (1 << 20)
	m["core.resize_yield"] = float64(resized) / float64(max(pathLen, 1))

	// Serial baseline: the same StatisticalGreedy calls from the same
	// starting sizings at Workers=1. Workers >= 2 scores moves
	// concurrently and so takes a different trajectory; the speed-up is
	// therefore taken per outer iteration.
	var serMs float64
	var serIters int64
	for _, o := range outs {
		for i, lambda := range table1Lambdas {
			d := clone(o.base)
			d.Circuit.RestoreSizes(o.sgStart[i])
			start := time.Now()
			r, err := core.StatisticalGreedy(d, w.vm, w.opts(lambda, 1))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("serial baseline: %w", err)
			}
			serMs += ms(time.Since(start))
			serIters += int64(r.Iterations)
		}
	}
	m["core.speedup_vs_serial"] = (serMs / float64(max(serIters, 1))) / m["core.ms_per_iteration"]
	rep.add("core.serial_ms_per_iteration", serMs/float64(max(serIters, 1)), "ms",
		fmt.Sprintf("Workers=1 over %d iterations; pinned Workers=%d over %d", serIters, coreWorkers, sgIters))
	return untracedS, tracedS, 1, nil
}
