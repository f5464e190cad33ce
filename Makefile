# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race race-short bench bench-smoke fuzz-smoke trace-smoke metrics-smoke perfbench-check perfbench-pairs vet check fmt fmt-check loc repro repro-quick examples clean

all: check test build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI-sized race lane: -short trims the exhaustive/zoo suites to keep
# the race detector's ~10x slowdown affordable.
race-short:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for real measurements (the CI lane).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Twenty seconds of fuzzing the /v1/batch and /v1/insert body parser
# against encoding/json (the CI lane); the seed corpus alone runs in go test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePairs$$' -fuzztime 20s ./internal/serve

# Record an observability trace of one real run, then validate it against
# the JSONL schema (run/level bracketing, monotone edge decay, known phases).
trace-smoke:
	$(GO) run ./cmd/connect -gen rmat -scale 14 -trace /tmp/parconn-trace.jsonl
	$(GO) run ./cmd/connect -validate-trace /tmp/parconn-trace.jsonl

# Metrics smoke: boot connserve with span sampling on every request, drive
# each endpoint class (queries, batch, a 4xx, an insert), and assert the
# /metrics exposition carries the request counters, error taxonomy, latency
# histograms, and runtime series — plus a JSONL span trace that
# validates against the schema.
metrics-smoke:
	$(GO) test -run 'TestMetricsEndpoint' -count=1 ./cmd/connserve

# parconnvet fails on active findings AND on stale //parconn:allow
# suppressions (an allow that matches no finding is itself a finding).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/parconnvet ./...

# perfbench/ is a Go module of its own, so the root `go vet ./...` and
# `go test ./...` never reach it; its tests check that the benchmark
# program matches BENCHMARK.json.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The pre-merge regression gate: alternating before/after pairs of one
# perfbench workload against a parent revision (extracted with git archive),
# summarised as EXPERIMENTS.md's median [quartiles] / wins table with an
# ok/REGRESSED verdict per BENCHMARK.json end-to-end metric. Exits 1 on a
# regression, an incorrect or failed run, or a metric missing on one side, e.g.
#   make perfbench-pairs PARENT=HEAD~1 WORKLOAD=cc-rmat PAIRS=10
PAIRS ?= 10
perfbench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make perfbench-pairs PARENT=<rev> WORKLOAD=<w> [PAIRS=10]"; exit 2; }
	python3 scripts/perfpairs.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS)

# Machine-readable findings report (what CI uploads as an artifact) and the
# inferred hot-path/parallel-context sets with per-function provenance.
vet-json:
	$(GO) run ./cmd/parconnvet -json /tmp/parconnvet-findings.json ./... ; \
	cat /tmp/parconnvet-findings.json

vet-graph:
	$(GO) run ./cmd/parconnvet -graph - ./...

# Everything that must pass before a change lands: formatting, go vet, the
# repository's own static analyses (see DESIGN.md "Correctness tooling"),
# the benchmark module's vet and tests (they compile against the internal
# packages it imports), and the unit tests of the scripts under scripts/.
check: fmt-check vet perfbench-check
	python3 -m unittest discover -s scripts -p '*_test.py'

fmt:
	gofmt -w $$(find . -name '*.go' -not -path './results_csv/*')

fmt-check:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './results_csv/*')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Regenerate every table/figure of the paper (see EXPERIMENTS.md).
repro:
	$(GO) run ./cmd/bench -experiment all -scale 1 -trials 3 -csv results_csv | tee results_full.txt

# Quick end-to-end pass at tiny scale (~seconds).
repro-quick:
	$(GO) run ./cmd/bench -experiment all -scale 0.01 -trials 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/imagesegment
	$(GO) run ./examples/netreliability
	$(GO) run ./examples/streaming

# Lines of non-test Go outside perfbench/ and the analyzer's testdata: the
# size figure ROADMAP.md and CHANGES.md report, so every change counts it
# the same way.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' \
		-not -path './internal/analysis/testdata/*' -not -path './results_csv/*' \
		-not -path './.*' | xargs cat | wc -l

clean:
	rm -rf results_csv
