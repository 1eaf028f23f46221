package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The self-test runs every workload at a tiny size. It proves that each
// metric BENCHMARK.json names is printed with its unit, and that the
// correctness checks fail on a corrupted output.

// tinyConfig scales a workload down to well under a second.
func tinyConfig(t *testing.T, workload string) config {
	t.Helper()
	return config{
		workload: workload, seed: 7, seconds: 0.4, setups: 2,
		workDir: t.TempDir(),
		size: sizes{
			table1Circuits:  []string{"alu1"},
			table1DAGGates:  60,
			signoffDAGGates: 400,
			signoffMC:       []string{"alu1"},
			mcTrials:        200,
			mixWhatIfDesign: "alu1",
			mixMemoDesigns:  []string{"alu1", "alu3"},
			mixMCDesign:     "alu1",
			mixOptDesign:    "alu1",
			mixUniqueGates:  60,
			mixMCSamples:    100,
			mixOptIters:     1,
			mixMaxJobs:      2 * mixBlock,
		},
	}
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs cfg and returns the printed text and the parsed last line.
func runTiny(t *testing.T, cfg config) (bool, string, jsonResult) {
	t.Helper()
	var buf bytes.Buffer
	ok, err := run(&buf, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	out := strings.TrimSpace(buf.String())
	lines := strings.Split(out, "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", cfg.workload, err, out)
	}
	return ok, out, res
}

// checkPrinted asserts that the result carries exactly the named
// metrics with their units, and that each is also printed by name.
func checkPrinted(t *testing.T, workload, out string, res jsonResult, want map[string]string) {
	t.Helper()
	got := make(map[string]string)
	for name, m := range res.Metrics {
		got[name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: printed metrics %v, BENCHMARK.json names %v", workload, got, want)
	}
	for name, unit := range want {
		found := false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && f[0] == name && f[2] == unit {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no line prints %s with unit %s", workload, name, unit)
		}
	}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bf := readBenchmarkFile(t)
	endToEndUnits := make(map[string]string)
	for _, m := range bf.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	perLayerUnits := make(map[string]string)
	for _, m := range bf.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		ok, out, res := runTiny(t, tinyConfig(t, w))
		if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: ok=%v result %+v\n%s", w, ok, res, out)
		}
		checkPrinted(t, w, out, res, endToEndUnits)
	}
	cfg := tinyConfig(t, "table1")
	cfg.trace = true
	ok, out, res := runTiny(t, cfg)
	if !ok || !res.Correct {
		t.Errorf("traced: ok=%v result %+v\n%s", ok, res, out)
	}
	checkPrinted(t, "traced", out, res, perLayerUnits)
}

// TestChecksCatchFaults corrupts one output per workload and expects
// the run to count it as failed and report itself incorrect.
func TestChecksCatchFaults(t *testing.T) {
	for _, tc := range []struct{ workload, fault string }{
		{"table1", "sizes"},
		{"sstad-mix", "service"},
		{"signoff", "pdf"},
	} {
		cfg := tinyConfig(t, tc.workload)
		cfg.fault = tc.fault
		ok, out, res := runTiny(t, cfg)
		if ok || res.Correct || res.Failed < 1 {
			t.Errorf("%s with a corrupted %s: ok=%v result %+v\n%s", tc.workload, tc.fault, ok, res, out)
		}
		if !strings.Contains(out, "CHECK FAILED") {
			t.Errorf("%s: no failed check printed", tc.workload)
		}
	}
}

func TestRequestsDependOnlyOnSeedAndIndex(t *testing.T) {
	cfg := tinyConfig(t, "sstad-mix")
	a, b := newMix(cfg), newMix(cfg)
	for _, w := range []*mix{a, b} {
		w.gates = []whatifGate{{"g1", 3}, {"g2", 4}}
	}
	kinds := make(map[string]int)
	for i := 0; i < 3*mixBlock; i++ {
		ka, ra := a.request(i)
		kb, rb := b.request(i)
		if ka != kb || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("job %d differs between two generators with one seed", i)
		}
		kinds[ka]++
	}
	want := map[string]int{"whatif": 27, "analyze-memo": 12, "analyze-unique": 12, "montecarlo": 6, "optimize": 3}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("mix over three blocks = %v, want %v", kinds, want)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "root", StartMs: 0, EndMs: 10},
		{ID: 2, Parent: 1, Name: "a", StartMs: 1, EndMs: 4},
		{ID: 3, Parent: 1, Name: "b", StartMs: 3, EndMs: 6},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartMs: 8, EndMs: 12}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d", StartMs: 2, EndMs: 3},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 5 - 2, 2: 2, 3: 3, 4: 4, 5: 1}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}
