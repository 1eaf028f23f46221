package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/client"
	"repro/internal/benchfmt"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/verilog"
)

// mix drives an in-process sstad (journal on, so every admission is
// fsynced) from closed-loop callers with a seeded request mix. Each
// block of 20 consecutive jobs holds, in seeded order, 9 whatif jobs
// (cached design, memo misses), 4 analyze jobs of generated designs
// with repeated options (memo hits), 4 analyze jobs of unique inline
// netlists, half .bench and half Verilog (design-cache misses), 2
// Monte-Carlo jobs and 1 capped optimize job alternating between the
// statgreedy and sensitivity backends. One operation is one job, from
// Submit to the result in the caller's hands.
type mix struct {
	cfg   config
	dir   string
	srv   *server.Server
	ts    *httptest.Server
	cl    *client.Client
	rt    *countingTransport
	gates []whatifGate // logic gates of the whatif design
}

type whatifGate struct {
	name  string
	sizes int
}

// Job kinds, by slot in a block of mixBlock jobs.
const mixBlock = 20

func mixKind(slot int) string {
	switch {
	case slot < 9:
		return "whatif"
	case slot < 13:
		return "analyze-memo"
	case slot < 17:
		return "analyze-unique"
	case slot < 19:
		return "montecarlo"
	}
	return "optimize"
}

func newMix(cfg config) *mix { return &mix{cfg: cfg} }

// countingTransport counts the HTTP exchanges the client makes and the
// ones its retry policy will re-send (transport errors and the
// retryable statuses 429, 502, 503 and 504).
type countingTransport struct {
	base      http.RoundTripper
	calls     atomic.Int64
	retryable atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.calls.Add(1)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.retryable.Add(1)
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		t.retryable.Add(1)
	}
	return resp, nil
}

func (w *mix) setup() error {
	w.close()
	if w.gates == nil {
		d, err := repro.Generate(w.cfg.size.mixWhatIfDesign)
		if err != nil {
			return err
		}
		sd, _ := d.Internal()
		for i := range sd.Circuit.Gates {
			g := &sd.Circuit.Gates[i]
			if g.Fn.IsLogic() {
				w.gates = append(w.gates, whatifGate{g.Name, sd.Lib.NumSizes(sd.Kind(g.ID))})
			}
		}
	}
	dir, err := os.MkdirTemp(w.cfg.workDir, "sstad-mix-")
	if err != nil {
		return err
	}
	w.dir = dir
	srv, err := server.New(server.Config{JobWorkers: jobWorkers, JournalPath: filepath.Join(dir, "journal")})
	if err != nil {
		return err
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv.Handler())
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * callers
	w.rt = &countingTransport{base: tr}
	w.cl = client.New(w.ts.URL, client.WithHTTPClient(&http.Client{Transport: w.rt}))
	// Warm: every generated design the mix names is interned in the
	// design cache, and the memo-hit analyses are memoized.
	ctx := context.Background()
	warm := []client.JobRequest{
		{Op: client.OpAnalyze, Generate: w.cfg.size.mixWhatIfDesign},
		{Op: client.OpAnalyze, Generate: w.cfg.size.mixMCDesign},
		{Op: client.OpAnalyze, Generate: w.cfg.size.mixOptDesign},
	}
	for _, name := range w.cfg.size.mixMemoDesigns {
		warm = append(warm, memoRequest(name))
	}
	for _, req := range warm {
		st, err := w.cl.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("warm-up %s %s: %w", req.Op, req.Generate, err)
		}
		if st.State != "done" {
			return fmt.Errorf("warm-up %s %s: %s %s", req.Op, req.Generate, st.State, st.Error)
		}
	}
	return nil
}

func (w *mix) close() {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = w.srv.Shutdown(ctx) // the run is over; a slow drain only delays exit
		cancel()
		w.srv = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func memoRequest(name string) client.JobRequest {
	return client.JobRequest{Op: client.OpAnalyze, Generate: name, TargetYields: []float64{0.9, 0.99}}
}

// request builds job i of the seeded stream; the same seed and index
// always give the same request.
func (w *mix) request(i int) (kind string, req client.JobRequest) {
	seed := uint64(w.cfg.seed)
	block, pos := i/mixBlock, i%mixBlock
	perm := rand.New(rand.NewPCG(seed, uint64(block))).Perm(mixBlock)
	slot := perm[pos]
	kind = mixKind(slot)
	rng := rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, uint64(i)))
	sz := w.cfg.size
	switch kind {
	case "whatif":
		cands := make([][]client.Edit, 16)
		for c := range cands {
			g := w.gates[rng.IntN(len(w.gates))]
			cands[c] = []client.Edit{{Gate: g.name, Size: rng.IntN(g.sizes)}}
		}
		req = client.JobRequest{Op: client.OpWhatIf, Generate: sz.mixWhatIfDesign, Candidates: cands}
	case "analyze-memo":
		req = memoRequest(sz.mixMemoDesigns[rng.IntN(len(sz.mixMemoDesigns))])
	case "analyze-unique":
		n := sz.mixUniqueGates
		c := gen.RandomDAG(fmt.Sprintf("u%d_%d", w.cfg.seed, i), max(n/16, 4), n, max(n/32, 2), rng.Int64())
		var buf bytes.Buffer
		format := "bench"
		if slot%2 == 1 {
			format = "verilog"
			_ = verilog.Write(&buf, c) // writes to a bytes.Buffer cannot fail
		} else {
			_ = benchfmt.Write(&buf, c)
		}
		req = client.JobRequest{Op: client.OpAnalyze, Bench: buf.String(), Name: c.Name, Format: format, TargetYields: []float64{0.99}}
	case "montecarlo":
		req = client.JobRequest{Op: client.OpMonteCarlo, Generate: sz.mixMCDesign, Samples: sz.mixMCSamples, Seed: rng.Int64N(1 << 40)}
	case "optimize":
		opt := "statgreedy"
		if block%2 == 1 {
			opt = "sensitivity"
		}
		req = client.JobRequest{Op: client.OpOptimize, Generate: sz.mixOptDesign, Lambda: 3, MaxIters: sz.mixOptIters, Optimizer: opt, Seed: rng.Int64N(1 << 40)}
	}
	return kind, req
}

// jobRec is one job as its caller saw it.
type jobRec struct {
	index      int
	kind       string
	req        client.JobRequest
	t0, ts, t1 time.Time // submit sent, submit answered, result received
	lag        time.Duration
	status     *client.JobStatus
	err        error
}

// window runs the callers until d has passed (or mixMaxJobs jobs were
// issued) and returns every job in index order. next numbers the jobs
// across windows so that no two windows repeat a request.
func (w *mix) window(d time.Duration, next *atomic.Int64, tr *tracer) ([]jobRec, time.Duration) {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	root := tr.start("sstad-mix", 0, "sstad-mix.pass", "")
	first := int(next.Load())
	var mu sync.Mutex
	var recs []jobRec
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lane := root.child("loadgen.caller", fmt.Sprintf("caller%d", c))
			defer lane.stop()
			last := time.Now()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit := w.cfg.size.mixMaxJobs; limit > 0 && i-first >= limit {
					return
				}
				g := lane.child("loadgen.next", "")
				kind, req := w.request(i)
				g.stop()
				rec := jobRec{index: i, kind: kind, req: req}
				rec.t0 = time.Now()
				rec.lag = rec.t0.Sub(last)
				job := lane.child("client.job", "job"+strconv.Itoa(i))
				st, err := w.cl.Submit(ctx, req)
				rec.ts = time.Now()
				if err == nil && !st.Terminal() {
					st, err = w.cl.Wait(ctx, st.ID)
				}
				rec.t1 = time.Now()
				job.stop()
				rec.status, rec.err = st, err
				if err == nil && tr != nil {
					stages(job, rec)
				}
				last = rec.t1
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := root.stop()
	slices.SortFunc(recs, func(a, b jobRec) int { return a.index - b.index })
	return recs, elapsed
}

// stages splits a job's span at the server's own timestamps: admission
// (transfer, decode, design resolve, journal fsync) up to Created, queue
// wait up to Started, compute up to Finished, then delivery to the
// caller (long-poll wake, marshal, transfer).
func stages(job span, rec jobRec) {
	st := rec.status
	clamp := func(t, lo, hi time.Time) time.Time {
		if t.Before(lo) {
			return lo
		}
		if t.After(hi) {
			return hi
		}
		return t
	}
	t0, t1 := rec.t0.Round(0), rec.t1.Round(0)
	created := clamp(st.Created, t0, t1)
	started := clamp(st.Started, created, t1)
	finished := clamp(st.Finished, started, t1)
	job.interval("server.admit", t0, created)
	job.interval("jobs.queue", created, started)
	job.interval("oprun.compute."+st.Op, started, finished)
	job.interval("server.deliver", finished, t1)
}

// cacheCounters scrapes the design-cache hit and miss totals.
func (w *mix) cacheCounters() (hits, misses float64, err error) {
	text, err := w.cl.Metrics(context.Background())
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "sstad_cache_design_hits_total":
			hits = v
		case "sstad_cache_design_misses_total":
			misses = v
		}
	}
	return hits, misses, sc.Err()
}

// jobMs is a job's latency from submit to the result in hand.
func (r jobRec) ms() float64 { return ms(r.t1.Sub(r.t0)) }

// tally counts attempted and failed jobs and runs the direct-library
// comparison on a seeded sample.
func (w *mix) tally(window string, recs []jobRec, rep *report) {
	compared := 0
	seen := make(map[string]bool)
	for _, r := range recs {
		rep.attempted++
		if r.err != nil {
			rep.failed++
			rep.fail("sstad-mix job %d (%s): %v", r.index, r.kind, r.err)
			continue
		}
		if r.status.State != "done" {
			rep.failed++
			rep.fail("sstad-mix job %d (%s): %s %s", r.index, r.kind, r.status.State, r.status.Error)
			continue
		}
		if !w.sampled(r, seen) || compared >= mixMaxCompared {
			continue
		}
		tamper := w.cfg.fault == "service" && compared == 0
		compared++
		if err := compareDirect(r.req, r.status, tamper); err != nil {
			rep.failed++
			rep.fail("sstad-mix job %d (%s) disagrees with the library: %v", r.index, r.kind, err)
		}
	}
	rep.add("sstad-mix.compared."+window, float64(compared), "jobs", "seeded sample compared bit for bit with direct library calls")
}

// mixMaxCompared caps the direct-library comparisons per window.
const mixMaxCompared = 40

// sampled picks the first job of each kind plus a seeded one in eight.
func (w *mix) sampled(r jobRec, seen map[string]bool) bool {
	if !seen[r.kind] {
		seen[r.kind] = true
		return true
	}
	return rand.New(rand.NewPCG(uint64(w.cfg.seed), uint64(r.index)^0x5bd1e995)).IntN(8) == 0
}

// compareDirect repeats a job's request directly on the library and
// compares the answers bit for bit, as the server's end-to-end tests do.
// tamper nudges the service's answer first, to prove the check bites.
func compareDirect(req client.JobRequest, st *client.JobStatus, tamper bool) error {
	var d *repro.Design
	var err error
	switch {
	case req.Generate != "":
		d, err = repro.Generate(req.Generate)
	case req.Format == "verilog":
		d, err = repro.LoadVerilog(strings.NewReader(req.Bench), req.Name)
	default:
		d, err = repro.LoadBench(strings.NewReader(req.Bench), req.Name)
	}
	if err != nil {
		return err
	}
	opts := repro.RunOptions{Workers: req.Workers, PDFPoints: req.PDFPoints, MaxIters: req.MaxIters}
	nudge := func(x *float64) {
		if tamper {
			*x = math.Nextafter(*x, math.Inf(1))
		}
	}
	switch req.Op {
	case client.OpAnalyze, client.OpMonteCarlo:
		var got *client.AnalyzeResult
		var want *repro.Analysis
		if req.Op == client.OpAnalyze {
			got, err = st.Analyze()
			want = d.AnalyzeOpts(opts)
		} else {
			got, err = st.MonteCarlo()
			if err == nil {
				want, err = d.MonteCarloOpts(req.Samples, req.Seed, opts)
			}
		}
		if err != nil {
			return err
		}
		nudge(&got.Sigma)
		if got.Mean != want.Mean || got.Sigma != want.Sigma || got.NominalDelay != want.NominalDelay {
			return fmt.Errorf("moments (%v, %v, %v) vs direct (%v, %v, %v)", got.Mean, got.Sigma, got.NominalDelay, want.Mean, want.Sigma, want.NominalDelay)
		}
		if !slices.Equal(got.PDFX, want.PDFX) || !slices.Equal(got.PDFY, want.PDFY) {
			return errors.New("PDF support differs")
		}
		if len(got.Periods) != len(req.TargetYields) {
			return fmt.Errorf("%d period answers for %d target yields", len(got.Periods), len(req.TargetYields))
		}
		for i, y := range req.TargetYields {
			T, err := want.PeriodForYield(y)
			if err != nil || got.Periods[i].Period != T {
				return fmt.Errorf("period for yield %g: %v vs direct %v (%v)", y, got.Periods[i].Period, T, err)
			}
		}
	case client.OpWhatIf:
		got, err := st.WhatIf()
		if err != nil {
			return err
		}
		edits := make([][]repro.WhatIfEdit, len(req.Candidates))
		for i, cand := range req.Candidates {
			for _, e := range cand {
				edits[i] = append(edits[i], repro.WhatIfEdit{Gate: e.Gate, Size: e.Size})
			}
		}
		want, err := d.WhatIfBatch(edits, opts)
		if err != nil {
			return err
		}
		if len(got.Reports) != len(want) {
			return fmt.Errorf("%d reports vs direct %d", len(got.Reports), len(want))
		}
		nudge(&got.Reports[0].SigmaAfter)
		for i, g := range got.Reports {
			x := want[i]
			if g.MeanBefore != x.MeanBefore || g.SigmaBefore != x.SigmaBefore || g.MeanAfter != x.MeanAfter || g.SigmaAfter != x.SigmaAfter {
				return fmt.Errorf("candidate %d: %+v vs direct %+v", i, g, x)
			}
		}
	case client.OpOptimize:
		got, err := st.Optimize()
		if err != nil {
			return err
		}
		dd := d.Clone()
		opts.Optimizer, opts.Seed = req.Optimizer, req.Seed
		want, err := dd.Optimize(req.Lambda, opts)
		if err != nil {
			return err
		}
		nudge(&got.SigmaAfter)
		if got.MeanAfter != want.MeanAfter || got.SigmaAfter != want.SigmaAfter || got.AreaAfter != want.AreaAfter ||
			got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy {
			return fmt.Errorf("result %+v vs direct %+v", got, want)
		}
		if !slices.Equal(got.Sizes, dd.Sizes()) {
			return errors.New("sizing vectors differ")
		}
	default:
		return fmt.Errorf("no direct comparison for op %q", req.Op)
	}
	return nil
}

// latencies returns submit-to-result times of the completed jobs.
func latencies(recs []jobRec) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.err == nil && r.status.State == "done" {
			xs = append(xs, r.ms())
		}
	}
	return xs
}

func (w *mix) measure(d time.Duration, rep *report) error {
	var next atomic.Int64
	recs, elapsed := w.window(d, &next, nil)
	heap := liveHeapMB()
	w.tally("window", recs, rep)
	lat := latencies(recs)
	m := rep.metrics
	m["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
	m["op_p50_ms"] = median(lat)
	m["op_p95_ms"] = quantile(lat, 0.95)
	m["live_heap_mb"] = heap
	beyond := len(lat) - int(math.Ceil(0.95*float64(len(lat))))
	rep.add("jobs_per_s", m["ops_per_s"], "1/s", fmt.Sprintf("%d jobs in %.2f s, %d closed-loop callers, as timed", len(lat), elapsed.Seconds(), callers))
	rep.add("job_p50_ms", m["op_p50_ms"], "ms", fmt.Sprintf("%d samples, as timed", len(lat)))
	note := fmt.Sprintf("%d samples beyond it, as timed", beyond)
	if beyond < 10 {
		note += "; fewer than 10, so this percentile is not resolved"
	}
	rep.add("job_p95_ms", m["op_p95_ms"], "ms", note)
	return nil
}

func (w *mix) traced(tr *tracer, rep *report) (untracedS, tracedS float64, lanes int, err error) {
	half := time.Duration(w.cfg.seconds / 2 * float64(time.Second))
	var next atomic.Int64
	recs, elapsed := w.window(half, &next, nil)
	w.tally("untraced", recs, rep)
	untracedS = elapsed.Seconds() / float64(max(len(latencies(recs)), 1))

	h0, m0, err := w.cacheCounters()
	if err != nil {
		return 0, 0, 0, err
	}
	calls0, retries0 := w.rt.calls.Load(), w.rt.retryable.Load()
	recs, elapsed = w.window(half, &next, tr)
	calls, retries := w.rt.calls.Load()-calls0, w.rt.retryable.Load()-retries0
	h1, m1, err := w.cacheCounters()
	if err != nil {
		return 0, 0, 0, err
	}
	w.tally("traced", recs, rep)
	done := latencies(recs)
	tracedS = elapsed.Seconds() / float64(max(len(done), 1))

	var admit, queue, deliver, lag []float64
	compute := make(map[string][]float64)
	memoHits := 0
	for _, r := range recs {
		lag = append(lag, ms(r.lag))
		if r.err != nil || r.status.State != "done" {
			continue
		}
		st := r.status
		admit = append(admit, ms(r.ts.Sub(r.t0)))
		queue = append(queue, ms(st.Started.Sub(st.Created)))
		compute[st.Op] = append(compute[st.Op], ms(st.Finished.Sub(st.Started)))
		deliver = append(deliver, ms(r.t1.Round(0).Sub(st.Finished)))
		if st.CacheHit {
			memoHits++
		}
	}
	m := rep.metrics
	m["server.admit_p50_ms"] = median(admit)
	m["server.admit_p95_ms"] = quantile(admit, 0.95)
	m["jobs.queue_wait_p50_ms"] = median(queue)
	m["jobs.queue_wait_p95_ms"] = quantile(queue, 0.95)
	for _, op := range []string{client.OpAnalyze, client.OpWhatIf, client.OpMonteCarlo, client.OpOptimize} {
		m["oprun.compute_ms."+op] = median(compute[op])
	}
	m["server.deliver_p50_ms"] = median(deliver)
	m["designcache.memo_hit_frac"] = float64(memoHits) / float64(max(len(done), 1))
	m["designcache.design_hit_frac"] = (h1 - h0) / math.Max(h1-h0+m1-m0, 1)
	m["client.http_calls_per_job"] = float64(calls) / float64(max(len(recs), 1))
	m["client.retries"] = float64(retries)
	m["loadgen.lag_p95_ms"] = quantile(lag, 0.95)

	// Memo hits skip the engines, so their latency shows what admission
	// and delivery alone cost.
	var hitMs []float64
	for _, r := range recs {
		if r.err == nil && r.status.CacheHit {
			hitMs = append(hitMs, r.ms())
		}
	}
	rep.add("sstad-mix.memo_hit_job_p50_ms", median(hitMs), "ms", fmt.Sprintf("%d memo-hit jobs", len(hitMs)))
	rep.add("sstad-mix.traced_jobs", float64(len(recs)), "jobs", fmt.Sprintf("traced window of %.1f s", elapsed.Seconds()))
	return untracedS, tracedS, callers, nil
}
