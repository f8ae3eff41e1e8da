GO ?= go

.PHONY: build test vet verify agreement bench hippobench metrics-smoke crash-smoke server-smoke optimize-smoke fleet-smoke incremental-smoke mt-smoke bench-server bench-optimize bench-fleet bench-incremental bench-mt

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# agreement runs the static/dynamic agreement harness on its own: superset
# soundness on every corpus target and 250 generated programs, plus
# static-driven repair leaving both detectors clean.
agreement:
	$(GO) test ./internal/static/ -run 'TestCorpusAgreement|TestCorpusStaticRepairBothClean|TestProgenAgreement' -v

# metrics-smoke repairs testdata/metrics_smoke.pmc with every telemetry
# flag on and validates the exported JSON against the schemas checked in
# under internal/obs/schema/ (plus pipeline-coverage and fix-count checks
# in TestValidateSmokeArtifacts). It then gates the service telemetry:
# the Prometheus writer/linter suite, the golden test pinning the exact
# /metrics exposition format, and flight-recorder schema validation.
metrics-smoke:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/hippocrates -metrics $$dir/metrics.json -spans $$dir/spans.json -audit testdata/metrics_smoke.pmc >$$dir/out.txt && \
	OBS_SMOKE_DIR=$$dir $(GO) test ./internal/obs/ -run TestValidateSmokeArtifacts -count=1; \
	status=$$?; rm -rf $$dir; exit $$status
	$(GO) test ./internal/obs/ -run 'TestWriteProm|TestLintProm|TestPromName' -count=1
	$(GO) test ./internal/server/ -run 'TestPromGolden|TestFlightRecorder' -count=1

# crash-smoke proves the crash-injection validation engine end to end on
# testdata/crash_smoke.pmc: the buggy build must FAIL `pmvm -crash`
# (a mid-run schedule loses the published payload), and
# `hippocrates -crashcheck` must repair it and revalidate every crash
# schedule cleanly.
crash-smoke:
	@if $(GO) run ./cmd/pmvm -crash testdata/crash_smoke.pmc >/dev/null 2>&1; then \
		echo "crash-smoke: buggy build unexpectedly survived -crash"; exit 1; \
	else \
		echo "crash-smoke: buggy build fails -crash as expected"; \
	fi
	$(GO) run ./cmd/hippocrates -crashcheck testdata/crash_smoke.pmc

# optimize-smoke runs the repair-to-optimize pass over the whole corpus
# (buggy targets are repaired first) and re-proves "do no harm"
# externally: workload return values and detector report multisets must
# be unchanged, the crashsim-able targets must carry a verdict-identity
# proof, and the showcase targets (the four overpersist shapes plus
# redis-flushfree) must each lose at least one flush or fence.
optimize-smoke:
	$(GO) test ./internal/optimize/ -run TestOptimizeSmoke -count=1 -v

# server-smoke boots hippocratesd on an ephemeral port, round-trips one
# buggy corpus program (repair + crash validation), schema-validates the
# response, /metrics.json, and the flight recorder against
# internal/server/schema/, lints the Prometheus /metrics exposition,
# checks trace-ID propagation, and proves an identical resubmit is served
# byte-identically from the response cache.
server-smoke:
	$(GO) run ./cmd/hippocratesd -smoke -quiet

# fleet-smoke runs the fault-injection suite against real in-process
# backends behind the hippocratesfleet router — a backend hard-killed
# mid-load, a SIGTERM drain, injected latency with hedging armed, and
# TCP connection resets — and requires every scenario to finish with
# zero harm: all jobs accepted, every accepted response byte-identical
# to a sequential run, every rejection an honest 429/503 + Retry-After.
# It also lints the router's own Prometheus /metrics exposition.
fleet-smoke:
	$(GO) run ./cmd/hippocratesfleet -smoke -quiet

# incremental-smoke proves the summary-cached incremental analysis does
# no harm: warm re-analyses over progen's deterministic edit sequence
# must be byte-identical to cold runs with exact invalidation footprints,
# the whole corpus must analyze identically with and without a shared
# store, and a concurrent daemon sharing one store across jobs must serve
# byte-identical responses (under the race detector).
incremental-smoke:
	$(GO) test -race -count=1 -run 'TestEditSequenceWarmIdentical|TestIncrementalCorpusByteIdentical|TestSoakStaticSummaryReuse' ./internal/progen/ ./internal/static/ ./internal/server/

# mt-smoke proves the interleaving-aware pipeline end to end: the
# concurrent corpus programs must hide their bugs under the default
# round-robin schedule where seeded to, expose them under exploration,
# replay deterministically by schedule id, and come out fixed (detector
# union clean + every explored interleaving crash-validated); the
# schedule package's own suite pins POR/bounded-exhaustive verdict
# equivalence and replay determinism; the threaded agreement sweep pins
# static superset soundness over generated concurrent programs.
mt-smoke:
	$(GO) test ./internal/corpus/ -run TestMTSmoke -count=1 -v
	$(GO) test ./internal/schedule/ -count=1
	$(GO) test ./internal/static/ -run TestProgenThreadedAgreement -count=1

# verify is the tier-1 gate (referenced from ROADMAP.md): vet, build, the
# full suite under the race detector, the agreement harness, and the
# telemetry, crash-validation, interleaving, incremental-analysis, and
# repair-service smoke tests.
verify: vet build
	$(GO) test -race ./...
	$(MAKE) agreement
	$(MAKE) metrics-smoke
	$(MAKE) crash-smoke
	$(MAKE) optimize-smoke
	$(MAKE) incremental-smoke
	$(MAKE) mt-smoke
	$(MAKE) server-smoke
	$(MAKE) fleet-smoke

bench:
	$(GO) test -bench=. -benchmem ./...
	BENCH_CRASHSIM_OUT=$(CURDIR)/BENCH_crashsim.json $(GO) test -run '^TestWriteCrashSweepJSON$$' -count=1 -v ./internal/bench/

# hippobench runs the seeded end-to-end benchmark declared in
# BENCHMARK.json. cmd/hippobench and internal/benchmark are their own Go
# modules, so `go run ./cmd/hippobench` fails from the repo root; run.sh
# builds them offline under .bench_build/. Pass flags through ARGS, e.g.
# make hippobench ARGS='-seed 1 -out bench-out'.
hippobench:
	bash cmd/hippobench/run.sh $(ARGS)

# bench-server replays the crashsim-able corpus (cold + warm rounds) against
# an in-process daemon and writes throughput/latency/speedup, per-round
# cache hit ratios, and the per-round time series (throughput + daemon
# queue depth) to BENCH_server.json.
bench-server:
	$(GO) run ./cmd/hippocratesd -selftest -quiet -bench-out $(CURDIR)/BENCH_server.json

# bench-optimize sweeps the optimize pass over the corpus and writes the
# per-target simulated-cost deltas (pmem.CostModel) of the proven edit
# set to BENCH_optimize.json.
bench-optimize:
	BENCH_OPTIMIZE_OUT=$(CURDIR)/BENCH_optimize.json $(GO) test -run '^TestWriteOptSweepJSON$$' -count=1 -v ./internal/bench/

# bench-incremental replays the deterministic layered edit sequence
# (51 functions, 6 edits) comparing a cold whole-module static analysis
# against a warm summary-store-backed one per edit, and writes per-edit
# cold/warm times, speedups, hit counts, and the byte-identity bit to
# BENCH_incremental.json.
bench-incremental:
	BENCH_INCREMENTAL_OUT=$(CURDIR)/BENCH_incremental.json $(GO) test -run '^TestWriteIncrSweepJSON$$' -count=1 -v ./internal/bench/

# bench-mt sweeps the bounded interleaving search over the concurrent
# corpus — POR vs bounded-exhaustive explored counts (the pruning
# factor), schedules/second, and the end-to-end interleaving-aware
# repair time including the per-schedule crash sweep — and writes
# BENCH_mt.json.
bench-mt:
	BENCH_MT_OUT=$(CURDIR)/BENCH_mt.json $(GO) test -run '^TestWriteMTSweepJSON$$' -count=1 -v ./internal/bench/

# bench-fleet measures routed cold/warm corpus throughput at 1, 2, and 3
# backends plus a kill drill (one backend killed mid-load: zero accepted
# jobs lost, zero mismatched bytes, client-observed p99) and writes
# BENCH_fleet.json. Cold throughput scales with spare CPU, not backend
# count — the report records gomaxprocs so the scaling numbers read in
# context.
bench-fleet:
	$(GO) run ./cmd/hippocratesfleet -bench -bench-out $(CURDIR)/BENCH_fleet.json
