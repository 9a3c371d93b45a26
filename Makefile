GO ?= go

.PHONY: all vet build test race fuzz bench benchcheck corpus corpus-update results-check profile lint perfbench-check ci

all: ci

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the repo's own analyzer suite
# (cmd/coefficientlint), which enforces the determinism and
# error-handling contracts from DESIGN.md §9/§14.  staticcheck runs too
# when it is on PATH; STATICCHECK_VERSION pins the release CI should
# install.  The coefficientlint run is wall-clock budgeted: the
# interprocedural passes (call graph + taint fixpoint) must stay fast
# enough that the full suite never becomes the long pole of CI.
STATICCHECK_VERSION ?= 2024.1.1
LINT_BUDGET_SECONDS ?= 60
lint: vet
	@start=$$(date +%s); \
	$(GO) run ./cmd/coefficientlint ./... || exit $$?; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "coefficientlint: clean in $${elapsed}s (budget $(LINT_BUDGET_SECONDS)s)"; \
	if [ $$elapsed -gt $(LINT_BUDGET_SECONDS) ]; then \
		echo "coefficientlint exceeded the $(LINT_BUDGET_SECONDS)s wall-clock budget" >&2; \
		exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (pin: $(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test execution order within each package, so
# accidental inter-test state dependence fails loudly instead of riding
# on declaration order.
race:
	$(GO) test -race -shuffle=on ./...

# Short fuzz passes over the scenario-DSL parser and the wire-format
# decoder; FUZZTIME can be raised for deeper runs.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/scenario/
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/frame/

# Time every experiment serial vs parallel and write one
# BENCH_<experiment>.json per experiment into BENCHDIR.  The run aborts
# if any parallel table differs from its serial counterpart.  BENCHFLAGS
# defaults to a quick sweep; unset it for full-length horizons.
BENCHDIR ?= results
BENCHFLAGS ?= -quick
bench: build
	$(GO) run ./cmd/coefficientsim -experiment all $(BENCHFLAGS) -bench $(BENCHDIR)

# Run a fresh quick sweep into CHECKDIR and gate it against the
# committed BENCHDIR baseline: cmd/benchguard fails on a >25% serial
# wall-clock regression (or any serial/parallel table divergence) and
# warns on smaller slowdowns.  Every checked sweep is also appended to
# the TRENDFILE history so throughput is tracked across PRs, not just
# thresholded against the last baseline.
CHECKDIR ?= bench-out
TRENDFILE ?= results/BENCH_TREND.jsonl
benchcheck: build
	$(GO) run ./cmd/coefficientsim -experiment all $(BENCHFLAGS) -bench $(CHECKDIR)
	$(GO) run ./cmd/benchguard -baseline $(BENCHDIR) -candidate $(CHECKDIR) -trend $(TRENDFILE)

# Quick-mode scenario corpus (DESIGN.md §13): generate CORPUSCOUNT
# scenarios from CORPUSSEED, run them differentially under CoEfficient,
# FSPEC and adaptive CoEfficient with the invariant catalog armed,
# verify outcomes are byte-identical at 1 and 8 workers, and diff the
# results against the committed golden store.  `make corpus-update`
# rewrites the store after an intended behavior change.
CORPUSSEED ?= 1
CORPUSCOUNT ?= 200
CORPUSGOLDEN ?= results/corpus/golden-quick.json
corpus: build
	$(GO) run ./cmd/coefficientcorpus run -seed $(CORPUSSEED) -count $(CORPUSCOUNT) -quick -verify-parallel 8
	$(GO) run ./cmd/coefficientcorpus diff -seed $(CORPUSSEED) -count $(CORPUSCOUNT) -quick -golden $(CORPUSGOLDEN)

corpus-update: build
	$(GO) run ./cmd/coefficientcorpus diff -seed $(CORPUSSEED) -count $(CORPUSCOUNT) -quick -golden $(CORPUSGOLDEN) -update

# Regenerate the quick sweep at seed 1 (tables as text and csv, plus the
# SVG figures) into a temporary directory and diff every file against
# the committed results/, so a behavior change cannot leave them stale.
results-check: build
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/coefficientsim -experiment all -quick -seed 1 -output $$tmp/all_experiments.txt -svg $$tmp || exit $$?; \
	$(GO) run ./cmd/coefficientsim -experiment all -quick -seed 1 -format csv -output $$tmp/all_experiments.csv || exit $$?; \
	status=0; \
	for f in $$tmp/*; do diff -u results/$$(basename $$f) $$f || status=1; done; \
	if [ $$status -ne 0 ]; then echo "results/ is stale: regenerate it with the commands in EXPERIMENTS.md" >&2; exit 1; fi; \
	echo "results-check: results/ matches a fresh quick sweep"

# Profile the hot path two ways into PROFDIR: CPU/alloc profiles of a
# full experiment sweep via cmd/coefficientsim, plus the engine
# micro-benchmarks with the go test profiler.  Inspect with
# `go tool pprof -top $(PROFDIR)/cpu.pprof`.
PROFDIR ?= prof
PROFEXP ?= fig1
profile: build
	mkdir -p $(PROFDIR)
	$(GO) run ./cmd/coefficientsim -experiment $(PROFEXP) -quick -parallel 1 \
		-cpuprofile $(PROFDIR)/cpu.pprof -memprofile $(PROFDIR)/mem.pprof >/dev/null
	$(GO) test -run=^$$ -bench 'BenchmarkFig1RunningTime|BenchmarkFig5DeadlineMissRatio|BenchmarkSimulateCycle' \
		-benchmem -benchtime 50x -count 1 \
		-cpuprofile $(PROFDIR)/bench_cpu.pprof -memprofile $(PROFDIR)/bench_mem.pprof -o $(PROFDIR)/bench.test .
	@echo "profiles written to $(PROFDIR)/ (inspect: go tool pprof -top $(PROFDIR)/cpu.pprof)"

# The benchmark under perfbench/ is a separate Go module, so the root
# `./...` patterns never build or test it; this target catches a root
# API change that breaks the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

ci: lint build test race perfbench-check results-check
