GO ?= go

.PHONY: build test vet verify agreement bench bench-smoke hippobench hippobench-build metrics-smoke usage-smoke crash-smoke server-smoke optimize-smoke incremental-smoke mt-smoke fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# agreement runs the whole static gate on its own: superset soundness
# against the dynamic detector on every corpus target, 250 generated
# programs, 100 generated concurrent programs (over explored schedules)
# and recursive call graphs; static-driven repair leaving both detectors
# clean; a run without a summary store matching a cold store-backed one;
# the pinned results (internal/static/testdata/pinned_results.txt),
# which hold every report, lint and summary hash fixed; and the cache-line
# resolver the analysis shares with the fixer, with the fixer's phase-2
# reduction tests that depend on it.
agreement:
	$(GO) test ./internal/static/ -run 'TestCorpusAgreement|TestCorpusStaticRepairBothClean|TestProgenAgreement|TestProgenThreadedAgreement|TestRecursiveSCCAgreement|TestNoStoreMatchesColdStore|TestPinnedResults|TestLineResolver' -v
	$(GO) test ./internal/core/ -run 'TestReduction|TestEscapingSlotBlocksReduction|TestClone|TestDisableReductionAblation' -v

# metrics-smoke repairs testdata/metrics_smoke.pmc with every telemetry
# flag on and validates the exported JSON against the schemas checked in
# under internal/obs/schema/ (plus pipeline-coverage and fix-count checks
# in TestValidateSmokeArtifacts). It then gates the service telemetry:
# the Prometheus writer/linter suite, the golden test pinning the exact
# /metrics exposition format (the daemon's only metrics view), and
# flight-recorder schema validation.
metrics-smoke:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/hippocrates -metrics $$dir/metrics.json -spans $$dir/spans.json -audit testdata/metrics_smoke.pmc >$$dir/out.txt && \
	OBS_SMOKE_DIR=$$dir $(GO) test ./internal/obs/ -run TestValidateSmokeArtifacts -count=1; \
	status=$$?; rm -rf $$dir; exit $$status
	$(GO) test ./internal/obs/ -run 'TestWriteProm|TestLintProm|TestPromName' -count=1
	$(GO) test ./internal/server/ -run 'TestPromGolden|TestFlightRecorder' -count=1

# usage-smoke pins the commands' exit codes on built binaries (`go run`
# folds every failure into exit 1): a flag combination
# cli.Request.Validate rejects is a usage error (exit 2) in each of
# hippocrates, pmcheck and pmvm, a clean run exits 0 and a buggy one 1.
# A replayed trace holding a store the durability model cannot hold
# (testdata/bad_store.trace crosses a cache line) or a thread id no
# machine can run (testdata/huge_tid.trace, which would size the
# tracker's per-thread state) is an input error, exit 1; a panic would
# exit 2. So is a .pmir module ir.Verify rejects (testdata/malformed.pmir,
# whose block falls through after a fence), in the static check, repair
# and execution alike, and a global larger than its memory region
# (testdata/huge_global.pmir, whose 80 GB PM global the interpreter
# would otherwise allocate) in repair and execution. So is a global
# whose byte size overflows int64 (testdata/overflow_global.pmir, which
# ir.Verify rejects) in every command, the static check included. It also drives pmcheck's in-memory shadow repair with every telemetry
# flag on and requires its span tree to hold plan, apply and revalidate.
usage-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/ ./cmd/hippocrates ./cmd/pmcheck ./cmd/pmvm && \
	want_exit() { want=$$1 cmd=$$2; shift 2; "$$dir/$$cmd" "$$@" >/dev/null 2>&1; got=$$?; \
		if [ $$got -ne $$want ]; then echo "usage-smoke: $$cmd $$* exited $$got, want $$want"; exit 1; fi; } && \
	want_exit 2 hippocrates -max-schedules 3 testdata/metrics_smoke.pmc && \
	want_exit 2 hippocrates -marks bogus testdata/metrics_smoke.pmc && \
	want_exit 2 pmcheck -threads -static testdata/metrics_smoke.pmc && \
	want_exit 2 pmvm -crash-points 4 testdata/metrics_smoke.pmc && \
	want_exit 0 hippocrates -o $$dir/fixed.pmir testdata/metrics_smoke.pmc && \
	want_exit 0 pmcheck $$dir/fixed.pmir && \
	want_exit 1 pmcheck testdata/metrics_smoke.pmc && \
	want_exit 1 hippocrates -trace testdata/bad_store.trace testdata/metrics_smoke.pmc && \
	want_exit 1 hippocrates -trace testdata/huge_tid.trace testdata/metrics_smoke.pmc && \
	want_exit 1 pmcheck -replay testdata/huge_tid.trace && \
	want_exit 1 pmcheck -static testdata/malformed.pmir && \
	want_exit 1 hippocrates testdata/malformed.pmir && \
	want_exit 1 pmvm testdata/malformed.pmir && \
	want_exit 1 hippocrates testdata/huge_global.pmir && \
	want_exit 1 pmvm testdata/huge_global.pmir && \
	want_exit 1 hippocrates testdata/overflow_global.pmir && \
	want_exit 1 pmcheck testdata/overflow_global.pmir && \
	want_exit 1 pmcheck -static testdata/overflow_global.pmir && \
	want_exit 1 pmvm testdata/overflow_global.pmir && \
	want_exit 1 pmcheck -metrics $$dir/metrics.json -spans $$dir/spans.json -audit testdata/metrics_smoke.pmc && \
	for span in plan apply revalidate; do \
		grep -q "\"name\": \"$$span\"" $$dir/spans.json || \
			{ echo "usage-smoke: pmcheck shadow-repair spans lack $$span"; exit 1; }; \
	done && echo "usage-smoke: exit codes and shadow-repair spans as expected"

# crash-smoke proves the crash-injection validation engine end to end on
# testdata/crash_smoke.pmc: the buggy build must FAIL `pmvm -crash`
# (a mid-run schedule loses the published payload), and
# `hippocrates -crashcheck` must repair it and revalidate every crash
# schedule cleanly. It then pins that a step-limited recovery is a
# verdict: testdata/slow_recovery.pmc, whose recovery entry outruns 2000
# steps, must exit 1 under `pmvm -crash -steplimit 2000` and 0 under
# `pmvm -crash` (exit codes checked on a built binary, since `go run`
# turns every failure into 1).
crash-smoke:
	@if $(GO) run ./cmd/pmvm -crash testdata/crash_smoke.pmc >/dev/null 2>&1; then \
		echo "crash-smoke: buggy build unexpectedly survived -crash"; exit 1; \
	else \
		echo "crash-smoke: buggy build fails -crash as expected"; \
	fi
	$(GO) run ./cmd/hippocrates -crashcheck testdata/crash_smoke.pmc
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/pmvm ./cmd/pmvm && \
	want_exit() { want=$$1; shift; "$$dir/pmvm" "$$@" >/dev/null 2>&1; got=$$?; \
		if [ $$got -ne $$want ]; then echo "crash-smoke: pmvm $$* exited $$got, want $$want"; exit 1; fi; } && \
	want_exit 1 -crash -steplimit 2000 testdata/slow_recovery.pmc && \
	want_exit 0 -crash testdata/slow_recovery.pmc && \
	echo "crash-smoke: slow recovery fails under -steplimit 2000 and passes without it"

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
# response and the flight recorder against internal/server/schema/,
# checks that the job's span tree covers the front end and the pipeline,
# lints the Prometheus /metrics exposition and reads a response-cache hit
# and zero failed jobs from it, checks trace-ID propagation, and proves
# an identical resubmit is served byte-identically from the response
# cache.
server-smoke:
	$(GO) run ./cmd/hippocratesd -smoke -quiet

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

# fuzz-smoke fuzzes for a short budget each:
# - the schedule boundary: random decision prefixes on generated threaded
#   programs must replay identically on the decoded interpreter and the
#   tree-walker, and a choice out of range must fail the same way on both;
# - the durability tracker: a random stream of stores, flushes, fences,
#   checkpoints, captures and resets must match the reference tracker, and
#   no capture or publish may change as the tracker recycles its records;
# - the simulated memory: a random stream of writes, reads, snapshots,
#   overlays and resets on one reused memory must read exactly like a fresh
#   memory, and no snapshot may change as the memory is reset;
# - the IR boundary: random .pmir text run through cli.Run in check,
#   static-check and repair mode must never panic out of it, a module
#   ir.Verify rejects must fail at compile, before any layer runs, and a
#   module that parses must print to text that parses back to the same
#   text;
# - the pmc boundary: random pmc source run through cli.Run in check,
#   static-check and repair mode must never panic out of it, and a source
#   that does not compile must fail before any pipeline layer runs (only
#   the front end's lex, parse and lower spans are recorded);
# - the IR parser: random text must be accepted or rejected (on the same
#   line) as the line-splitting parser it replaced accepts or rejects it,
#   and parse to the same module in every field;
# - the shared verdicts: a generated threaded program explored under a
#   random budget, its runs sharing one verdict table, must give every run
#   the verdict a fresh replay of its choices gives, and a union that
#   reads as the replays' DedupeByClass;
# - the daemon's request decode: a random request body must be accepted
#   or rejected as the json.Decoder decode it replaced accepts or rejects
#   it (bytes after the object are now always rejected), decode to the
#   same cli.Request, and never panic Validate;
# - the trace boundary: random text read as a native or (after "PMTest ")
#   a PMTest trace, as the CLIs read -trace and -replay files, must replay
#   through the detector without panicking when it parses, and print to
#   text that parses back to the same text.
#   Shrinking a new interesting input is capped at 100 runs: uncapped, it
#   can take the workers for the whole budget.
# The seed corpora under internal/*/testdata/fuzz/ also run in the plain
# suite.
fuzz-smoke:
	$(GO) test ./internal/interp -run '^$$' -fuzz FuzzScheduleReplay -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/pmem -run '^$$' -fuzz FuzzTrackerReference -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/pmem -run '^$$' -fuzz FuzzMemoryReset -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/cli -run '^$$' -fuzz FuzzCompileIR -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/cli -run '^$$' -fuzz FuzzCompilePMC -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/ir -run '^$$' -fuzz FuzzParseModule -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/schedule -run '^$$' -fuzz FuzzExploreVerdicts -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/pmcheck -run '^$$' -fuzz FuzzParseTrace -fuzztime 10s -fuzzminimizetime 100x

# bench-smoke runs every benchmark once, so a benchmark that no longer
# builds or fails its own checks breaks the gate (BenchmarkCrashSweep/dedup
# fails above a fifth of the pre-fast-path wall time). It measures
# nothing; `make bench` does.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# hippobench-build vets and builds the benchmark's own Go modules
# (internal/benchmark and cmd/hippobench), which the root `go build ./...`
# does not reach, offline and under the environment run.sh sets.
hb_build = $(CURDIR)/.bench_build
hb_env = HOME=$(hb_build)/home XDG_CONFIG_HOME=$(hb_build)/home/.config \
	XDG_CACHE_HOME=$(hb_build)/home/.cache TMPDIR=$(hb_build)/tmp GOTMPDIR=$(hb_build)/tmp \
	GOCACHE=$(hb_build)/gocache GOMODCACHE=$(hb_build)/gomodcache GOPATH=$(hb_build)/gopath \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
hippobench-build:
	mkdir -p $(hb_build)/home $(hb_build)/tmp
	for mod in internal/benchmark cmd/hippobench; do \
		env $(hb_env) $(GO) -C $$mod vet ./... && \
		env $(hb_env) $(GO) -C $$mod build -o /dev/null ./... || exit 1; \
	done

# verify is the tier-1 gate (referenced from ROADMAP.md): vet, build, the
# full suite under the race detector, the agreement harness, and the
# telemetry, exit-code, crash-validation, interleaving, incremental-analysis,
# schedule-fuzzing, repair-service and benchmark smoke tests, and the hippobench modules'
# vet and build. The daemon's serving guarantees (responses byte-identical
# to sequential runs under load, nothing lost in a drain, every 429/503
# carrying Retry-After) are server tests in the race-run suite.
verify: vet build
	$(GO) test -race ./...
	$(MAKE) agreement
	$(MAKE) metrics-smoke
	$(MAKE) usage-smoke
	$(MAKE) crash-smoke
	$(MAKE) optimize-smoke
	$(MAKE) incremental-smoke
	$(MAKE) mt-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) server-smoke
	$(MAKE) bench-smoke
	$(MAKE) hippobench-build

bench:
	$(GO) test -bench=. -benchmem ./...

# hippobench runs the seeded end-to-end benchmark declared in
# BENCHMARK.json. cmd/hippobench and internal/benchmark are their own Go
# modules, so `go run ./cmd/hippobench` fails from the repo root; run.sh
# builds them offline under .bench_build/. Pass flags through ARGS, e.g.
# make hippobench ARGS='-seed 1 -out bench-out'.
hippobench:
	bash cmd/hippobench/run.sh $(ARGS)
