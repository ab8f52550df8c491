# Build/test/bench targets for the GALS reproduction. `make bench` emits
# machine-readable results (go test -bench ... -benchmem | tee) so each PR
# can track the perf trajectory against the committed PERFORMANCE.md table.

GO        ?= go
BENCH     ?= BenchmarkSimulator|BenchmarkTrace|BenchmarkAccountingCache|BenchmarkBranchPredictor|BenchmarkFUPool|BenchmarkWindow
BENCHPKGS ?= . ./internal/core
COUNT     ?= 5
BENCHOUT  ?= BENCH_latest.txt
MEMWINDOW ?= 60000
MEMCACHE  ?= /tmp/gals-bench-mem-cache

.PHONY: all build test test-short race vet allocs inline deadcode parity determinism chaos crash fuzz obs bench bench-json bench-suite bench-mem bench-smoke bench-e2e-smoke loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-enabled run of the full test suite: the service, sweep and pool
# layers are concurrent by design, so this is the gate CI enforces.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Allocation gate (also a CI step): the steady-state instruction loop must
# not allocate (TestStepAllocsPerInstruction, < 1 B/instruction in every
# organization). Run without -race so the counts are the release build's.
allocs:
	$(GO) test -run 'Allocs' ./internal/core/ .

# Inlining gate (also a CI step): the timing model's hot clock queries test
# (*Clock).OnEdge inline and call the clock's methods only off its fast
# path, which pays only while the compiler inlines OnEdge. Fails if OnEdge
# is not inlinable, or if no OnEdge call is inlined into step, execCompute
# or addrGen (internal/core/pipeline.go). The compiler's -m report names
# only line numbers, so each function's lines are read from its source.
inline:
	@out=$$($(GO) build -gcflags=-m ./internal/clock ./internal/core 2>&1) || { echo "$$out" >&2; exit 1; }; \
	echo "$$out" | grep -q 'can inline (\*Clock).OnEdge' || { echo "inline: (*Clock).OnEdge is not inlinable" >&2; exit 1; }; \
	for f in step execCompute addrGen; do \
		echo "$$out" | awk -v fn=$$f ' \
			FNR == NR { if ($$0 ~ "^func \\(m \\*Machine\\) " fn "\\(") a = FNR; else if (a && !b && $$0 == "}") b = FNR; next } \
			/inlining call to clock\.\(\*Clock\)\.OnEdge/ { split($$0, p, ":"); if (p[1] == "internal/core/pipeline.go" && p[2] >= a && p[2] <= b) n++ } \
			END { if (!n) { print "inline: (*Clock).OnEdge is not inlined into " fn > "/dev/stderr"; exit 1 } print "inline: " fn ": " n " OnEdge calls inlined" }' \
			internal/core/pipeline.go - || exit 1; \
	done

# Dead-code gate (also a CI step): fails when a function declared in a
# non-test file under internal/ is linked into no main package (cmd/*,
# examples/* and bench/galsbench), i.e. only tests call it. Every main
# package is built with inlining off and its `go tool nm` symbols compared
# with the declarations; scripts/deadcode.allow lists the exceptions (the
# API that gals.go aliases, String methods), one reason per line.
deadcode:
	GO=$(GO) ./scripts/deadcode.sh

# Policy-parity gate (also a CI step): the "paper" adaptation policy must
# stay bit-identical to the pre-extraction machine — golden reconfiguration
# traces and rendered figure6/table9/figure7 outputs.
parity:
	$(GO) test -run Parity -race ./internal/control/... ./internal/core/... ./internal/experiment/...

# Learned-policy determinism gate (also a CI step): same seed + same
# persisted weights artifact => bit-identical reconfiguration traces.
determinism:
	$(GO) test -run 'Determinism|Deterministic' -race ./internal/learn/...

# Chaos gate (also a CI job): the fault-injection, cancellation and
# degradation tests — corrupt caches recompute bit-identically, truncated
# slabs re-record, saturation sheds with Retry-After, deadlines map to 504,
# cancelled sweeps drain without leaking goroutines — all under the race
# detector, since every one of these paths races teardown by design.
chaos:
	$(GO) test -race -run 'Chaos|Cancel|Inject' ./...

# Crash-recovery gate (also a CI job): the checkpoint/resume, startup-scrub
# and crash-injection tests — interrupted sweeps resume bit-identically from
# their persisted checkpoints, crashed-writer debris is reaped or
# quarantined, and a SIGKILLed galsd restarted over the same cache finishes
# the suite with strictly fewer simulations (real subprocess drill).
crash:
	$(GO) test -race -run 'Crash|Resume|Scrub' ./...

# Fuzz gate (also six CI steps): FuzzClockEdges checks the clock's
# division-free edge arithmetic and the on-edge test the timing model
# inlines against a plain / and % reference over random epoch sequences;
# FuzzSweepCheckpoint and FuzzPhaseCheckpoint
# decode arbitrary bytes as a MeasureSummary or MeasurePhase checkpoint and
# check that restore never panics and that an accepted checkpoint completes
# to a well-formed summary or a result for every benchmark;
# FuzzRunRequestNormalize, FuzzSweepRequestNormalize and
# FuzzSuiteRequestNormalize decode arbitrary bytes as a /v1/run, /v1/sweep
# or /v1/suite body and check that normalization either fails or reaches a
# fixed point with a stable cache key. `go test ./...`
# replays only their seed corpora (testdata/fuzz in each package); this
# target mutates new inputs for 15 s each.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzClockEdges -fuzztime 15s ./internal/clock
	$(GO) test -run '^$$' -fuzz FuzzSweepCheckpoint -fuzztime 15s ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzPhaseCheckpoint -fuzztime 15s ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzRunRequestNormalize -fuzztime 15s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzSweepRequestNormalize -fuzztime 15s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzSuiteRequestNormalize -fuzztime 15s ./internal/service

# Observability smoke (also a CI job): build galsd + galsload, then have
# galsload launch the daemon, drive a short mixed closed loop against it,
# scrape /metrics back and assert the instrumented loop is live (histogram
# populated, cache hits observed, cells completed). Exercises the whole
# metrics/trace/access-log stack end-to-end over real HTTP.
obs:
	mkdir -p bin
	$(GO) build -o bin/galsd ./cmd/galsd
	$(GO) build -o bin/galsload ./cmd/galsload
	./bin/galsload -launch -galsd-bin ./bin/galsd -duration 3s -concurrency 4 -assert

# Micro-benchmarks of the simulator's hot paths: fast enough to run on
# every PR. The simulator benchmarks live in the root package, the FU-pool
# and window component benchmarks in internal/core. Results land in
# $(BENCHOUT) for before/after comparison (benchstat-compatible: COUNT=5
# repetitions by default).
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count $(COUNT) $(BENCHPKGS) | tee $(BENCHOUT)

# Same micro-benchmarks, but the results also land as machine-readable JSON
# (BENCH_<timestamp>.json unless BENCHJSON overrides it): name, ns/op, B/op,
# allocs/op and any b.ReportMetric extras, one record per benchmark with
# -count repeats folded to the fastest run. CI uploads the file as a build
# artifact so perf history is diffable without parsing bench text.
BENCHJSON ?= BENCH_$(shell date +%Y%m%dT%H%M%S).json
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count $(COUNT) $(BENCHPKGS) | $(GO) run ./cmd/benchjson -o $(BENCHJSON)

# The full Figure-6 pipeline benchmark (minutes of wall time): the headline
# end-to-end number recorded in PERFORMANCE.md.
bench-suite:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure6$$' -benchtime 1x . | tee BENCH_suite.txt

# Memory-scaling report for a fixed pruned synchronous sweep: peak Go heap
# and peak RSS (the delta is the mmap'd recording store's file-backed
# pages). Fresh cache dir each run so the recording cost is included.
bench-mem:
	rm -rf $(MEMCACHE)
	$(GO) run ./cmd/sweep -quick -window $(MEMWINDOW) -cache $(MEMCACHE) -memstats

# One-iteration pass over every benchmark so they cannot rot (the CI job).
# The shrunken window keeps the suite-pipeline benchmarks to smoke scale.
bench-smoke:
	GALS_BENCH_WINDOW=2000 $(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The end-to-end benchmark (bench/galsbench) is its own module, compiled
# against this one through `replace gals => ../`, so the root
# `go test ./...` never builds it. Vet it and run its tests — including the
# few-second four-workload smoke test — so an exported-API change that
# breaks the benchmark fails here (also a CI job).
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Size of the program: non-test Go lines outside the separate bench/
# module, the total ROADMAP tracks.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs cat | wc -l

ci: build vet allocs inline deadcode race fuzz bench-smoke bench-e2e-smoke
