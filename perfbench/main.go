// Command perfbench is the repository's layered benchmark. It drives the
// library and an in-process sstad through three workloads and prints the
// end-to-end metrics named in BENCHMARK.json, or, with --trace 1, the
// per-layer breakdown.
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	table1     the paper's Table-1 sizing flow over the 13 ISCAS-like
//	           circuits plus eight seeded 250-gate random DAGs
//	signoff    netlist text to yield report: parse, lint, map, levelize,
//	           STA, FULLSSTA, FASSTA, WNSS, plus Monte Carlo on three
//	           paper circuits
//	sstad-mix  a seeded job mix from closed-loop callers against an
//	           in-process, journaled sstad with one job worker
//
// Every output is checked outside the timed region; a failed check is
// counted in "failed" and the command exits non-zero after printing its
// result. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The lines before it name
// every metric with its unit, together with the provenance of the run.
// README.md in this directory explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/buildinfo"
)

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
// An operation is one circuit flow (table1), one design pipeline
// (signoff) or one job (sstad-mix).
var endToEnd = []metricDef{
	{"setup_s", "s"},       // median of several set-ups: inputs built, designs mapped, server warmed
	{"ops_per_s", "1/s"},   // operations per second of timed work
	{"op_p50_ms", "ms"},    // median operation latency
	{"op_p95_ms", "ms"},    // 95th-percentile operation latency
	{"live_heap_mb", "MB"}, // largest live heap after a forced GC between operations
}

// perLayer are the metrics every traced run prints. Each is measured on
// the workload that exercises its layer; see README.md for which
// end-to-end metric each should move.
var perLayer = []metricDef{
	{"ingest.parse_ms", "ms"},
	{"ingest.parse_mb_per_s", "MB/s"},
	{"ingest.parse_alloc_mb", "MB"},
	{"circuitlint.lint_ms", "ms"},
	{"synth.map_ms", "ms"},
	{"circuit.levelize_ms", "ms"},
	{"sta.analyze_ms", "ms"},
	{"ssta.analyze_ms", "ms"},
	{"ssta.analyze_allocs", "count"},
	{"ssta.speedup_vs_serial", "x"},
	{"fassta.global_ms", "ms"},
	{"wnss.trace_ms", "ms"},
	{"montecarlo.trials_per_s", "1/s"},
	{"montecarlo.speedup_vs_serial", "x"},
	{"core.meandelay_ms", "ms"},
	{"core.statgreedy_ms", "ms"},
	{"core.recoverarea_ms", "ms"},
	{"core.ms_per_iteration", "ms"},
	{"core.analysis_ms", "ms"},
	{"core.scoring_ms", "ms"},
	{"core.iterations", "count"},
	{"core.evals", "count"},
	{"core.node_evals", "count"},
	{"core.alloc_mb", "MB"},
	{"core.resize_yield", "ratio"},
	{"core.speedup_vs_serial", "x"},
	{"server.admit_p50_ms", "ms"},
	{"server.admit_p95_ms", "ms"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.queue_wait_p95_ms", "ms"},
	{"oprun.compute_ms.analyze", "ms"},
	{"oprun.compute_ms.whatif", "ms"},
	{"oprun.compute_ms.montecarlo", "ms"},
	{"oprun.compute_ms.optimize", "ms"},
	{"server.deliver_p50_ms", "ms"},
	{"designcache.memo_hit_frac", "ratio"},
	{"designcache.design_hit_frac", "ratio"},
	{"client.http_calls_per_job", "calls/job"},
	{"client.retries", "count"},
	{"loadgen.lag_p95_ms", "ms"},
	{"trace.table1.overhead_pct", "%"},
	{"trace.signoff.overhead_pct", "%"},
	{"trace.sstad-mix.overhead_pct", "%"},
	{"trace.table1.self_sum_ratio", "ratio"},
	{"trace.signoff.self_sum_ratio", "ratio"},
	{"trace.sstad-mix.self_sum_ratio", "ratio"},
}

// selfSumTolerance bounds |1 - self_sum_ratio|: the self times of a
// workload's spans must add up to its wall time per lane (one lane for
// table1 and signoff, one per caller for sstad-mix). Callers finish
// their last job at slightly different times, hence the slack.
const selfSumTolerance = 0.05

var workloadNames = []string{"table1", "signoff", "sstad-mix"}

// Pinned settings. They change answers or the shape of the load, so they
// are part of the benchmark's definition; BENCHMARK.json's workload notes
// and every result's provenance repeat them.
const (
	// coreWorkers is core.Options.Workers for table1. At 2 or more,
	// StatisticalGreedy scores moves concurrently and so takes a different
	// trajectory than at 0 or 1; 0 would make the answers depend on the
	// host's CPU count.
	coreWorkers = 2
	// jobWorkers and callers shape sstad-mix: one job runs at a time
	// while a second caller's job usually waits behind it.
	jobWorkers = 1
	callers    = 2
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	workDir  string
	size     sizes
	// fault, set only by the self-test, corrupts one output before it is
	// checked: "sizes" (a Table-1 sizing vector), "service" (an sstad
	// answer) or "pdf" (a signoff PDF).
	fault string
}

// sizes scales the workloads; the self-test runs them tiny.
type sizes struct {
	table1Circuits []string // nil = gen.ISCASNames()
	table1DAGGates int

	signoffDAGGates int
	signoffMC       []string // paper circuits given as .bench text, with Monte Carlo
	mcTrials        int

	mixWhatIfDesign string
	mixMemoDesigns  []string
	mixMCDesign     string
	mixOptDesign    string
	mixUniqueGates  int
	mixMCSamples    int
	mixOptIters     int
	mixMaxJobs      int // 0 = until the window closes
}

var fullSizes = sizes{
	table1DAGGates:  2000,
	signoffDAGGates: 50000,
	signoffMC:       []string{"c880", "c6288", "c7552"},
	mcTrials:        2000,
	mixWhatIfDesign: "c7552",
	mixMemoDesigns:  []string{"c432", "c499", "c880", "c1355"},
	mixMCDesign:     "c880",
	mixOptDesign:    "alu2",
	mixUniqueGates:  400,
	mixMCSamples:    1000,
	mixOptIters:     3,
}

// provenance is printed with every result and stored with every span
// file: it records what was measured, where, and on which input.
type provenance struct {
	Revision    string `json:"revision"`
	Dirty       bool   `json:"dirty"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	CoreWorkers int    `json:"core_workers"`
	JobWorkers  int    `json:"job_workers"`
	Callers     int    `json:"callers"`
	Journal     string `json:"journal"`
}

func (c config) provenance() provenance {
	bi := buildinfo.Collect("perfbench", "")
	return provenance{
		Revision: bi.Revision, Dirty: bi.Dirty, GoVersion: bi.GoVersion,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: c.workload, Seed: c.seed, Trace: c.trace,
		CoreWorkers: coreWorkers, JobWorkers: jobWorkers, Callers: callers,
		Journal: "fsync",
	}
}

// report collects what one invocation prints.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64 // the JSON metrics
	// named are further metrics printed by name before the JSON line:
	// the workload's own figures (table1_wall_s, sigma_reduction_pct,
	// jobs_per_s, ...) and the per-workload self-time shares.
	named []namedValue
}

type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, value float64, unit, note string) {
	r.named = append(r.named, namedValue{name, value, unit, note})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the named lines and the final JSON line, and reports
// whether the run was correct.
func (r *report) print(w io.Writer, cfg config, defs []metricDef) (bool, error) {
	prov := cfg.provenance()
	pj, err := json.Marshal(prov)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "provenance %s\n", pj)
	for _, n := range r.named {
		fmt.Fprintf(w, "%-36s %14.6g %-9s %s\n", n.name, n.value, n.unit, n.note)
	}
	res := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || !finite(v) {
			r.fail("metric %s not measured", d.name)
			continue
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	if len(r.failures) > 0 && r.failed == 0 {
		// A check that is not tied to one operation still fails the run.
		r.failed = 1
	}
	res.Failed = r.failed
	res.Attempted = max(r.attempted, 1)
	res.Correct = r.failed == 0
	fmt.Fprintf(w, "failed_frac %d/%d = %g ratio\n", res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct, nil
}

func main() {
	cfg := config{size: fullSizes, setups: 5}
	flag.StringVar(&cfg.workload, "workload", "", "workload: table1, signoff or sstad-mix")
	flag.Int64Var(&cfg.seed, "seed", 0, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for the journal, temporary files and the span file")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	ok, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one invocation and prints its result. An error means no
// result was produced; false means a check failed.
func run(w io.Writer, cfg config) (bool, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return false, fmt.Errorf("unknown --workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if cfg.seconds <= 0 {
		return false, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return false, err
	}
	rep := newReport()
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := runTraced(cfg, rep); err != nil {
			return false, err
		}
	} else {
		wl, err := newWorkload(cfg.workload, cfg)
		if err != nil {
			return false, err
		}
		if err := measure(wl, cfg, rep); err != nil {
			return false, err
		}
	}
	return rep.print(w, cfg, defs)
}

// workload is one of the three benchmark workloads.
type workload interface {
	// setup builds the inputs (and, for sstad-mix, starts and warms the
	// server). It may be called several times; each call replaces the
	// previous state.
	setup() error
	// measure runs the timed work for the given duration and fills rep
	// with the end-to-end metrics and the check results.
	measure(d time.Duration, rep *report) error
	// traced runs one untraced and one traced pass, plus the serial
	// baselines, and fills the per-layer metrics of its layers.
	traced(tr *tracer, rep *report) (untracedS, tracedS float64, lanes int, err error)
	close()
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "table1":
		return newTable1(cfg), nil
	case "signoff":
		return newSignoff(cfg), nil
	case "sstad-mix":
		return newMix(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// timedSetup runs wl.setup cfg.setups times and returns the median
// duration in seconds; the last set-up's state is kept.
func timedSetup(wl workload, n int) (float64, error) {
	var ts []float64
	for i := 0; i < max(n, 1); i++ {
		start := time.Now()
		if err := wl.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// measure is the untraced run: set-up, then the timed work.
func measure(wl workload, cfg config, rep *report) error {
	defer wl.close()
	setupS, err := timedSetup(wl, cfg.setups)
	if err != nil {
		return err
	}
	rep.metrics["setup_s"] = setupS
	rep.add("setup_runs", float64(cfg.setups), "count", "setup_s is their median")
	return wl.measure(time.Duration(cfg.seconds*float64(time.Second)), rep)
}

// runTraced runs every workload once untraced and once traced at the
// given seed, so that every per-layer metric is measured in each traced
// run whichever --workload names; the named workload selects nothing
// else. End-to-end numbers never come from this mode.
func runTraced(cfg config, rep *report) error {
	tr := newTracer()
	for _, name := range workloadNames {
		wl, err := newWorkload(name, cfg)
		if err != nil {
			return err
		}
		if _, err := timedSetup(wl, 1); err != nil {
			wl.close()
			return err
		}
		untraced, traced, lanes, err := wl.traced(tr, rep)
		wl.close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.metrics["trace."+name+".overhead_pct"] = 100 * (traced - untraced) / untraced
		rows, selfSum, rootMs := tr.breakdown(name)
		ratio := selfSum / (rootMs * float64(lanes))
		rep.metrics["trace."+name+".self_sum_ratio"] = ratio
		if math.Abs(1-ratio) > selfSumTolerance {
			rep.fail("%s: span self times sum to %.4g of %d x wall, outside the %.0f%% tolerance", name, ratio, lanes, 100*selfSumTolerance)
		}
		rep.add(name+".wall_untraced_s", untraced, "s", "")
		rep.add(name+".wall_traced_s", traced, "s", "")
		for _, r := range rows {
			rep.add(name+".self."+r.Layer, 100*r.Share, "%", fmt.Sprintf("%.1f ms over %d spans", r.SelfMs, r.Spans))
		}
	}
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path, cfg.provenance()); err != nil {
		return err
	}
	rep.add("span_file", float64(len(tr.spans)), "spans", path)
	return nil
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
