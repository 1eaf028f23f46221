package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// allocCounter reads the process-wide heap allocation counters. Deltas
// around a call measure what the call allocated when nothing else runs.
type allocCounter struct{ samples []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

// read returns the cumulative bytes and objects allocated so far.
func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.samples)
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap in MB. It is
// only called between timed operations.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// opTiming is one operation's time and the live heap after it.
type opTiming struct {
	ms     float64
	heapMB float64
}

// measurePasses runs whole passes over a fixed set of nOps operations
// until d has passed, and sets the end-to-end metrics. Each operation's
// latency is its median over the passes; op_p50_ms and op_p95_ms are
// taken over those nOps medians, and ops_per_s is nOps over their sum.
// The operations differ in size, and on a shared host a single operation
// now and then runs half again as long as usual: the per-operation
// median keeps such a hiccup from moving any figure. It returns the wall
// time of every pass, in seconds.
func measurePasses(d time.Duration, nOps int, rep *report, pass func() []opTiming) []float64 {
	deadline := time.Now().Add(d)
	var walls []float64
	perOp := make([][]float64, nOps)
	var heap float64
	for len(walls) == 0 || time.Now().Before(deadline) {
		ts := pass()
		var wall float64
		for i, t := range ts {
			if i < nOps {
				perOp[i] = append(perOp[i], t.ms)
			}
			wall += t.ms / 1000
			heap = max(heap, t.heapMB)
		}
		walls = append(walls, wall)
	}
	var opMs []float64
	var typicalPass float64
	for _, xs := range perOp {
		if len(xs) > 0 {
			opMs = append(opMs, median(xs))
			typicalPass += median(xs) / 1000
		}
	}
	m := rep.metrics
	m["ops_per_s"] = float64(nOps) / typicalPass
	m["op_p50_ms"] = median(opMs)
	m["op_p95_ms"] = quantile(opMs, 0.95)
	m["live_heap_mb"] = heap
	rep.add("op_samples", float64(len(opMs)), "count", fmt.Sprintf("operations behind op_p50_ms and op_p95_ms, each the median of %d passes", len(walls)))
	return walls
}
