GO ?= go

.PHONY: all build test race vet lint lint-typed lint-selftest cover cover-update fuzz-smoke ingest-smoke bench serve e2e chaos cluster-e2e

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency layer (internal/parallel and its users) is validated
# under the race detector; this must stay green.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis gate: go vet plus both tiers of the project's own
# invariant linter (cmd/sstalint). The parse tier covers globalrand,
# wallclock, stdoutprint, ctxloop, naninput, dpdfalloc; the typed tier
# (go/types over the whole module) covers maporder, floatmerge,
# goroutinecapture, wirecontract. See DESIGN.md sections 9 and 14. Any
# finding fails the build.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sstalint -root . -timing

# Typed tier alone (CI runs it as its own timed step).
lint-typed:
	$(GO) run ./cmd/sstalint -root . -tier typed -timing

# Prove the lint gate bites: sstalint must report findings (non-zero
# exit) on both seeded-violation fixture trees. Exit 0 there means the
# linter has gone blind, so this target inverts it.
lint-selftest:
	@if $(GO) run ./cmd/sstalint -root internal/lint/testdata/selftest -tier parse >/dev/null 2>&1; then \
		echo "lint-selftest: FAIL — no findings on the parse-tier fixtures" >&2; exit 1; \
	else \
		echo "lint-selftest: ok (parse-tier seeded violations detected)"; \
	fi
	@if $(GO) run ./cmd/sstalint -root internal/lint/testdata/typed -tier typed >/dev/null 2>&1; then \
		echo "lint-selftest: FAIL — no findings on the typed-tier fixtures" >&2; exit 1; \
	else \
		echo "lint-selftest: ok (typed-tier seeded violations detected)"; \
	fi

# Coverage ratchet: per-package statement coverage must not drop below
# the floors pinned in COVERAGE.json (see cmd/covercheck). After
# genuinely improving coverage, `make cover-update` raises the floors.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covercheck -profile cover.out

cover-update:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covercheck -profile cover.out -update

# Short fuzz pass (~70s) over the differential incremental-SSTA target,
# the four format front doors (.bench, Liberty, Verilog, SDF), and the
# crash-journal replayer; run in CI on every push.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzIncrementalResize -fuzztime 20s ./internal/difftest
	$(GO) test -run xxx -fuzz FuzzOptimizerInvariants -fuzztime 10s ./internal/difftest
	$(GO) test -run xxx -fuzz FuzzParseLint -fuzztime 10s ./internal/benchfmt
	$(GO) test -run xxx -fuzz FuzzJournalReplay -fuzztime 10s ./internal/journal
	$(GO) test -run xxx -fuzz FuzzLiberty -fuzztime 10s ./internal/liberty
	$(GO) test -run xxx -fuzz FuzzVerilog -fuzztime 10s ./internal/verilog
	$(GO) test -run xxx -fuzz FuzzSDF -fuzztime 10s ./internal/sdf

# Ingestion memory-budget smoke: a generated ~500k-gate netlist must
# stream through the governed Verilog parser under a 2 GiB GOMEMLIMIT
# with bounded peak heap (the test skips unless INGEST_SMOKE is set).
ingest-smoke:
	INGEST_SMOKE=1 GOMEMLIMIT=2GiB $(GO) test -run TestSmokeLargeNetlist -v ./internal/verilog

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Run the sstad service locally (Ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/sstad -addr :8329

# End-to-end service tests: full stack (HTTP server + job queue +
# design cache) driven through the public client package, under -race.
e2e:
	$(GO) test -race -v -run 'TestE2E' ./internal/server

# Fault-tolerance chaos suite, under -race: journal/recovery/idempotency
# (internal/journal, internal/faultinject, client retry), the in-process
# interrupt-and-restart tests (TestChaos*), and the subprocess kill -9
# acceptance run (TestCrash*, builds a real sstad binary).
chaos:
	$(GO) test -race ./internal/journal ./internal/faultinject
	$(GO) test -race -v -run 'TestChaos|TestCrash' ./internal/server

# Multi-node e2e, under -race: the in-process cluster suite (sharded
# merge bit-exactness, lease failover, stale fencing, design
# replication, quotas) plus the subprocess acceptance run — a real
# coordinator and two real workers, the lease holder SIGKILLed
# mid-StatisticalGreedy, job finishing bit-identical to single-node.
cluster-e2e:
	$(GO) test -race ./internal/cluster
	$(GO) test -race -v -run 'TestCluster|TestTenant|TestShed' ./internal/server
