package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/circuitlint"
	"repro/internal/dpdf"
	"repro/internal/fassta"
	"repro/internal/gen"
	"repro/internal/montecarlo"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
	"repro/internal/verilog"
	"repro/internal/wnss"
	"repro/internal/yield"
)

// signoff takes netlist text to a yield report with no optimizer: parse,
// lint, map, levelize, STA, FULLSSTA, global FASSTA and the WNSS trace;
// the paper circuits also get Monte Carlo, the accuracy reference, and
// yield queries against it. Engines run at their default Workers (0).
// One operation is one design's pipeline.
type signoff struct {
	cfg    config
	lib    *cells.Library
	vm     *variation.Model
	inputs []netlist
	first  map[string]signoffAnswer
}

// netlist is one generated input, as the text a user would hand over.
type netlist struct {
	name, format string // format: "verilog" or "bench"
	text         []byte
	monteCarlo   bool
}

// signoffWNSSLambda is the sigma weight of the WNSS trace.
const signoffWNSSLambda = 3

func newSignoff(cfg config) *signoff { return &signoff{cfg: cfg} }

func (w *signoff) setup() error {
	w.lib = cells.Default90nm()
	w.vm = variation.Default(w.lib)
	w.inputs = w.inputs[:0]
	for _, name := range w.cfg.size.signoffMC {
		c, err := gen.ISCASLike(name)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := benchfmt.Write(&buf, c); err != nil {
			return err
		}
		w.inputs = append(w.inputs, netlist{name: name, format: "bench", text: buf.Bytes(), monteCarlo: true})
	}
	n := w.cfg.size.signoffDAGGates
	dag := gen.RandomDAG(fmt.Sprintf("dag%d_s%d", n, w.cfg.seed), max(n/200, 8), n, max(n/400, 4), w.cfg.seed)
	var buf bytes.Buffer
	if err := verilog.Write(&buf, dag); err != nil {
		return err
	}
	w.inputs = append(w.inputs, netlist{name: dag.Name, format: "verilog", text: buf.Bytes()})
	w.first = make(map[string]signoffAnswer)
	return nil
}

func (w *signoff) close() {}

// pipeOut is one design's results, kept for the checks and metrics.
type pipeOut struct {
	in      netlist
	ms      float64
	design  *synth.Design
	sta     *sta.Result
	full    *ssta.Result
	global  *fassta.GlobalResult
	path    []circuit.GateID
	mc      *montecarlo.Result
	periods []float64
	yields  []float64 // FULLSSTA yield at each period
	mcYield []float64 // Monte-Carlo yield at each period
	t99     float64   // period for 99% yield

	stageMs           map[string]float64
	parseAllocBytes   uint64
	sstaAllocsObjects uint64
	opTiming
}

type signoffAnswer struct{ mean, sigma, mcSigma float64 }

func (w *signoff) pipeline(in netlist, parent span, alloc *allocCounter) (*pipeOut, error) {
	out := &pipeOut{in: in, stageMs: make(map[string]float64)}
	sp := parent.child("signoff.design", in.name)
	stage := func(name string, fn func() error) error {
		s := sp.child(name, "")
		err := fn()
		out.stageMs[name] += ms(s.stop())
		return err
	}
	var b0, o0 uint64
	if alloc != nil {
		b0, _ = alloc.read()
	}
	var c *circuit.Circuit
	err := stage("ingest.parse", func() (err error) {
		if in.format == "verilog" {
			c, err = verilog.Parse(bytes.NewReader(in.text), in.name)
		} else {
			c, err = benchfmt.Parse(bytes.NewReader(in.text), in.name)
		}
		return err
	})
	if alloc != nil {
		b1, _ := alloc.read()
		out.parseAllocBytes = b1 - b0
	}
	if err != nil {
		return nil, err
	}
	err = stage("circuitlint.lint", func() error {
		if diags := circuitlint.Errors(circuitlint.LintCircuit(c)); len(diags) > 0 {
			return fmt.Errorf("lint: %s", diags[0].Msg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var d *synth.Design
	if err := stage("synth.map", func() (err error) { d, err = synth.Map(c, w.lib); return err }); err != nil {
		return nil, err
	}
	out.design = d
	_ = stage("circuit.levelize", func() error { d.Circuit.Levels(); return nil })
	_ = stage("sta.analyze", func() error { out.sta = sta.Analyze(d); return nil })
	if alloc != nil {
		_, o0 = alloc.read()
	}
	_ = stage("ssta.analyze", func() error { out.full = ssta.Analyze(d, w.vm, ssta.Options{}); return nil })
	if alloc != nil {
		_, o1 := alloc.read()
		out.sstaAllocsObjects = o1 - o0
	}
	_ = stage("fassta.global", func() error { out.global = fassta.AnalyzeGlobal(d, w.vm, true); return nil })
	_ = stage("wnss.trace", func() error {
		out.path = wnss.Trace(d, out.full, w.vm, signoffWNSSLambda)
		return nil
	})
	if in.monteCarlo {
		err := stage("montecarlo.analyze", func() (err error) {
			out.mc, err = montecarlo.AnalyzeOpts(d, w.vm, montecarlo.Options{Trials: w.cfg.size.mcTrials, Seed: w.cfg.seed})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	err = stage("yield.report", func() (err error) {
		mu, sigma := out.full.Mean, out.full.Sigma
		for k := -3.0; k <= 3; k += 0.5 {
			out.periods = append(out.periods, mu+k*sigma)
		}
		out.yields = yield.Sweep(out.full.CircuitPDF, out.periods)
		if out.mc != nil {
			for _, T := range out.periods {
				out.mcYield = append(out.mcYield, out.mc.Yield(T))
			}
		}
		out.t99, err = yield.PeriodFor(out.full.CircuitPDF, 0.99)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.ms = ms(sp.stop())
	return out, nil
}

// check verifies one pipeline outside the timed region: every PDF passes
// circuitlint.LintPDF, moments are finite, yield rises with the period,
// the WNSS path ends at an output, and the answer repeats bit for bit.
func (w *signoff) check(out *pipeOut) error {
	lintPDF := func(what string, p dpdf.PDF) error {
		xs, ps := p.Support()
		if w.cfg.fault == "pdf" && what == "circuit" {
			ps = append([]float64(nil), ps...)
			ps[0] = -ps[0]
		}
		if diags := circuitlint.Errors(circuitlint.LintPDF(xs, ps)); len(diags) > 0 {
			return fmt.Errorf("%s PDF: %s", what, diags[0].Msg)
		}
		return nil
	}
	for i, p := range out.full.Arrival {
		if p.Len() == 0 {
			continue // unreached node
		}
		if err := lintPDF(fmt.Sprintf("arrival[%d]", i), p); err != nil {
			return err
		}
	}
	if err := lintPDF("circuit", out.full.CircuitPDF); err != nil {
		return err
	}
	moments := []float64{out.sta.MaxArrival, out.full.Mean, out.full.Sigma, out.global.Mean, out.global.Sigma, out.t99}
	if out.mc != nil {
		if err := lintPDF("monte-carlo", out.mc.PDF(dpdf.DefaultPoints)); err != nil {
			return err
		}
		moments = append(moments, out.mc.Mean, out.mc.Sigma)
	}
	for _, m := range moments {
		if !finite(m) || m <= 0 {
			return fmt.Errorf("non-finite or non-positive moment in %v", moments)
		}
	}
	for _, ys := range [][]float64{out.yields, out.mcYield} {
		for i := 1; i < len(ys); i++ {
			if ys[i] < ys[i-1] {
				return fmt.Errorf("yield falls from %g to %g as the period grows", ys[i-1], ys[i])
			}
		}
		if len(ys) > 0 && !(ys[len(ys)-1] > ys[0]) {
			return fmt.Errorf("yield does not rise with the period: %v", ys)
		}
	}
	if len(out.path) == 0 || !isOutput(out.design.Circuit, out.path[len(out.path)-1]) {
		return fmt.Errorf("WNSS path of %d gates does not end at an output", len(out.path))
	}
	ans := signoffAnswer{mean: out.full.Mean, sigma: out.full.Sigma}
	if out.mc != nil {
		ans.mcSigma = out.mc.Sigma
	}
	if prev, ok := w.first[out.in.name]; !ok {
		w.first[out.in.name] = ans
	} else if prev != ans {
		return fmt.Errorf("answer %+v differs from the first pass's %+v", ans, prev)
	}
	return nil
}

func isOutput(c *circuit.Circuit, id circuit.GateID) bool {
	for _, o := range c.Outputs {
		if o == id {
			return true
		}
	}
	return false
}

// pass runs every design once; checks and the heap reading run between
// pipelines, outside their spans.
func (w *signoff) pass(root span, alloc *allocCounter, rep *report) (outs []*pipeOut, wallS float64) {
	for _, in := range w.inputs {
		rep.attempted++
		out, err := w.pipeline(in, root, alloc)
		if err == nil {
			err = w.check(out)
		}
		if err != nil {
			rep.failed++
			rep.fail("signoff %s: %v", in.name, err)
		}
		if out != nil {
			out.opTiming = opTiming{ms: out.ms, heapMB: liveHeapMB()}
			outs = append(outs, out)
			wallS += out.ms / 1000
		}
	}
	return outs, wallS
}

func (w *signoff) measure(d time.Duration, rep *report) error {
	var firstOuts []*pipeOut
	walls := measurePasses(d, len(w.inputs), rep, func() []opTiming {
		outs, _ := w.pass(span{}, nil, rep)
		if firstOuts == nil {
			firstOuts = outs
		}
		ts := make([]opTiming, len(outs))
		for i, o := range outs {
			ts[i] = o.opTiming
		}
		return ts
	})
	rep.add("signoff_wall_s", median(walls), "s", fmt.Sprintf("median of %d passes over %d designs, as timed", len(walls), len(w.inputs)))
	w.accuracy(firstOuts, rep)
	return nil
}

// accuracy prints FULLSSTA's sigma error against Monte Carlo.
func (w *signoff) accuracy(outs []*pipeOut, rep *report) {
	var errs []float64
	for _, o := range outs {
		note := fmt.Sprintf("%s, %d gates, %d bytes", o.in.format, o.design.Circuit.NumLogicGates(), len(o.in.text))
		if o.mc != nil {
			e := 100 * math.Abs(o.full.Sigma-o.mc.Sigma) / o.mc.Sigma
			errs = append(errs, e)
			note += fmt.Sprintf(", sigma %.3f vs MC %.3f (%.2f%%)", o.full.Sigma, o.mc.Sigma, e)
		}
		rep.add("signoff."+o.in.name, o.ms, "ms", note)
	}
	rep.add("sigma_err_pct", mean(errs), "%", fmt.Sprintf("mean |sigma_FULLSSTA - sigma_MC| / sigma_MC over %d designs, %d trials", len(errs), w.cfg.size.mcTrials))
}

func (w *signoff) traced(tr *tracer, rep *report) (untracedS, tracedS float64, lanes int, err error) {
	_, untracedS = w.pass(span{}, nil, rep)
	root := tr.start("signoff", 0, "signoff.pass", "")
	outs, tracedS := w.pass(root, newAllocCounter(), rep)
	root.stop()

	stage := make(map[string]float64)
	var textBytes, parseAlloc, sstaAllocs, trials float64
	for _, o := range outs {
		for _, k := range sortedKeys(o.stageMs) {
			stage[k] += o.stageMs[k]
		}
		textBytes += float64(len(o.in.text))
		parseAlloc += float64(o.parseAllocBytes)
		sstaAllocs += float64(o.sstaAllocsObjects)
		if o.mc != nil {
			trials += float64(len(o.mc.Samples))
		}
	}
	m := rep.metrics
	m["ingest.parse_ms"] = stage["ingest.parse"]
	m["ingest.parse_mb_per_s"] = textBytes / (1 << 20) / (stage["ingest.parse"] / 1000)
	m["ingest.parse_alloc_mb"] = parseAlloc / (1 << 20)
	m["circuitlint.lint_ms"] = stage["circuitlint.lint"]
	m["synth.map_ms"] = stage["synth.map"]
	m["circuit.levelize_ms"] = stage["circuit.levelize"]
	m["sta.analyze_ms"] = stage["sta.analyze"]
	m["ssta.analyze_ms"] = stage["ssta.analyze"]
	m["ssta.analyze_allocs"] = sstaAllocs
	m["fassta.global_ms"] = stage["fassta.global"]
	m["wnss.trace_ms"] = stage["wnss.trace"]
	m["montecarlo.trials_per_s"] = trials / (stage["montecarlo.analyze"] / 1000)

	// Serial baselines, back to back with the default-Workers call on
	// the same design so that both see the same cache state.
	var sstaPar, sstaSer, mcPar, mcSer time.Duration
	for _, o := range outs {
		sstaPar += timeIt(func() { ssta.Analyze(o.design, w.vm, ssta.Options{}) })
		sstaSer += timeIt(func() { ssta.Analyze(o.design, w.vm, ssta.Options{Workers: 1}) })
		if o.mc == nil {
			continue
		}
		for _, workers := range []int{0, 1} {
			start := time.Now()
			if _, err := montecarlo.AnalyzeOpts(o.design, w.vm, montecarlo.Options{Trials: w.cfg.size.mcTrials, Seed: w.cfg.seed, Workers: workers}); err != nil {
				return 0, 0, 0, fmt.Errorf("serial baseline: %w", err)
			}
			if workers == 0 {
				mcPar += time.Since(start)
			} else {
				mcSer += time.Since(start)
			}
		}
	}
	m["ssta.speedup_vs_serial"] = float64(sstaSer) / float64(sstaPar)
	m["montecarlo.speedup_vs_serial"] = float64(mcSer) / float64(mcPar)
	rep.add("ssta.serial_ms", ms(sstaSer), "ms", fmt.Sprintf("Workers=1; default Workers %.1f ms", ms(sstaPar)))
	rep.add("montecarlo.serial_ms", ms(mcSer), "ms", fmt.Sprintf("Workers=1; default Workers %.1f ms", ms(mcPar)))
	return untracedS, tracedS, 1, nil
}

func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
