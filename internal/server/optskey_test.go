package server

import (
	"testing"

	"repro/client"
)

// TestOptsKeyNormalization pins the result-memo key contract: design
// identity is carried by the design hash (not the key), the ignored
// full_recompute wire field is normalized out (a request still setting
// it shares the memo entry of one that does not), and genuinely
// result-changing options still split the key.
func TestOptsKeyNormalization(t *testing.T) {
	base := client.JobRequest{Op: client.OpOptimize, Generate: "c432", Lambda: 3}

	full := base
	full.FullRecompute = true
	if optsKey(base) != optsKey(full) {
		t.Errorf("full_recompute must be normalized out of the result key:\n  inc:  %s\n  full: %s",
			optsKey(base), optsKey(full))
	}

	renamed := base
	renamed.Generate = ""
	renamed.Bench = "INPUT(a)\nOUTPUT(a)\n"
	renamed.Name = "other"
	if optsKey(base) != optsKey(renamed) {
		t.Errorf("design identity fields must not influence the result key:\n  a: %s\n  b: %s",
			optsKey(base), optsKey(renamed))
	}

	// Format and Liberty are design identity too (the hash covers the
	// parsed content and the library fingerprint), never option state.
	formatted := renamed
	formatted.Format = client.FormatVerilog
	formatted.Liberty = "library (x) { }"
	if optsKey(renamed) != optsKey(formatted) {
		t.Errorf("format/liberty must be cleared from the result key:\n  a: %s\n  b: %s",
			optsKey(renamed), optsKey(formatted))
	}

	otherLambda := base
	otherLambda.Lambda = 9
	if optsKey(base) == optsKey(otherLambda) {
		t.Errorf("lambda changes results and must split the key: %s", optsKey(base))
	}

	// The default backend and its explicit name share one memo entry; a
	// different backend must split the key.
	explicit := base
	explicit.Optimizer = "statgreedy"
	if optsKey(base) != optsKey(explicit) {
		t.Errorf("default optimizer must normalize to its explicit name:\n  implicit: %s\n  explicit: %s",
			optsKey(base), optsKey(explicit))
	}
	sens := base
	sens.Optimizer = "sensitivity"
	if optsKey(base) == optsKey(sens) {
		t.Errorf("optimizer backend changes results and must split the key: %s", optsKey(base))
	}

	// On non-optimize ops the field is inert and cleared from the key.
	analyze := client.JobRequest{Op: client.OpAnalyze, Generate: "c432"}
	stray := analyze
	stray.Optimizer = "statgreedy"
	if optsKey(analyze) != optsKey(stray) {
		t.Errorf("optimizer must be cleared from non-optimize keys:\n  a: %s\n  b: %s",
			optsKey(analyze), optsKey(stray))
	}
}
