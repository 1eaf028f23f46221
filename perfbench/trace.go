package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory. Every layer call the
// benchmark makes is wrapped in a span from the benchmark's own code; the
// program under test carries no tracing. A nil *tracer is the untraced
// mode: spans still time their call (the workloads need the durations)
// but nothing is recorded.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Start and End are offsets from the
// tracer's epoch; Parent is 0 for a root span. Key names the circuit,
// design or job the span belongs to, shared by all its descendants.
type spanRec struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Key      string  `json:"key"`
	Workload string  `json:"workload"`
	StartMs  float64 `json:"start_ms"`
	EndMs    float64 `json:"end_ms"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open span handle. Its zero-cost form (t == nil) only times.
type span struct {
	t        *tracer
	id       int
	parent   int
	name     string
	key      string
	workload string
	start    time.Time
}

// start opens a span named after the layer call it wraps.
func (t *tracer) start(workload string, parent int, name, key string) span {
	s := span{t: t, parent: parent, name: name, key: key, workload: workload}
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, spanRec{}) // reserve the id now so parents precede children
		s.id = len(t.spans)
		t.mu.Unlock()
	}
	s.start = time.Now()
	return s
}

// child opens a span under s, inheriting its key unless one is given.
func (s span) child(name, key string) span {
	if key == "" {
		key = s.key
	}
	return s.t.start(s.workload, s.id, name, key)
}

// stop closes the span and returns its duration.
func (s span) stop() time.Duration {
	end := time.Now()
	s.t.record(s, s.start, end)
	return end.Sub(s.start)
}

// record stores a span whose interval was measured elsewhere (stages of
// a job reconstructed from the server's timestamps).
func (t *tracer) record(s span, start, end time.Time) {
	if t == nil {
		return
	}
	if s.id == 0 {
		t.mu.Lock()
		t.spans = append(t.spans, spanRec{})
		s.id = len(t.spans)
		t.mu.Unlock()
	}
	rec := spanRec{
		ID: s.id, Parent: s.parent, Name: s.name, Key: s.key, Workload: s.workload,
		StartMs: ms(start.Sub(t.epoch)), EndMs: ms(end.Sub(t.epoch)),
	}
	t.mu.Lock()
	t.spans[s.id-1] = rec
	t.mu.Unlock()
}

// interval records a closed span under parent for [start, end].
func (s span) interval(name string, start, end time.Time) {
	if s.t == nil {
		return
	}
	s.t.record(span{t: s.t, parent: s.id, name: name, key: s.key, workload: s.workload}, start, end)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []spanRec) map[int]float64 {
	children := make(map[int][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartMs < kids[j].StartMs })
		covered, curLo, curHi := 0.0, 0.0, -1.0
		for _, k := range kids {
			lo, hi := max(k.StartMs, s.StartMs), min(k.EndMs, s.EndMs)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.ID] = (s.EndMs - s.StartMs) - covered
	}
	return self
}

// layerShare is one layer's self time within a workload's traced pass.
type layerShare struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Spans  int     `json:"spans"`
}

// breakdown aggregates the self times of one workload's spans by span
// name. It also returns the sum of all self times and the duration of
// the workload's root span.
func (t *tracer) breakdown(workload string) (rows []layerShare, selfSum, rootMs float64) {
	t.mu.Lock()
	spans := make([]spanRec, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Workload == workload && s.ID != 0 {
			spans = append(spans, s)
		}
	}
	t.mu.Unlock()
	self := selfTimes(spans)
	by := make(map[string]*layerShare)
	var names []string
	for _, s := range spans {
		if s.Parent == 0 {
			rootMs += s.EndMs - s.StartMs
		}
		r := by[s.Name]
		if r == nil {
			r = &layerShare{Layer: s.Name}
			by[s.Name] = r
			names = append(names, s.Name)
		}
		r.SelfMs += self[s.ID]
		r.Spans++
		selfSum += self[s.ID]
	}
	for _, n := range names {
		r := by[n]
		if selfSum > 0 {
			r.Share = r.SelfMs / selfSum
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows, selfSum, rootMs
}

// write saves every span as JSON.
func (t *tracer) write(path string, prov provenance) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Provenance provenance `json:"provenance"`
		Spans      []spanRec  `json:"spans"`
	}{prov, t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
