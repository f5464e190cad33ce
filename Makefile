# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race race-short bench bench-smoke speedup-smoke trace-smoke trace-regression serve-smoke serve-regression churn-smoke churn-regression metrics-smoke slo-regression perfbench-check perfbench-pairs vet check fmt fmt-check repro repro-quick examples clean

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

# Parallel-efficiency smoke: sweep procs 1 vs 2 vs 4 at reduced scale and
# gate decomp-arb-hybrid-CC with tracestat's efficiency floor. Efficiency
# is speedup over min(procs, NumCPU), so the gate is meaningful on any CI
# host: it trips when adding workers makes the run substantially slower
# than serial (a parallel-efficiency regression), never on absolute speed.
speedup-smoke:
	$(GO) run ./cmd/bench -experiment speedup -procs 1,2,4 -scale 0.1 -json /tmp/parconn-speedup.json
	$(GO) run ./cmd/tracestat speedup /tmp/parconn-speedup.json

# Refresh the committed speedup curve (run on a quiet machine).
BENCH_speedup.json:
	$(GO) run ./cmd/bench -experiment speedup -procs 1,2,4 -json $@

# Record an observability trace of one real run, then validate it against
# the JSONL schema (run/level bracketing, monotone edge decay, known phases).
trace-smoke:
	$(GO) run ./cmd/connect -gen rmat -scale 14 -trace /tmp/parconn-trace.jsonl
	$(GO) run ./cmd/connect -validate-trace /tmp/parconn-trace.jsonl

# Record a fresh trace of the standard rMat-14 run and gate it against the
# committed baseline with cmd/tracestat. The tolerance and floor are
# deliberately loose: this lane runs on arbitrary shared CI machines and
# should only trip on order-of-magnitude phase blowups, not scheduler noise
# (tracestat's default 1.5x is for same-machine comparisons).
trace-regression:
	$(GO) run ./cmd/connect -gen rmat -scale 14 -seed 42 -trace /tmp/parconn-trace-regression.jsonl
	$(GO) run ./cmd/tracestat diff -tol 8 -floor 100ms testdata/trace-baseline-rmat14.jsonl /tmp/parconn-trace-regression.jsonl

# Refresh the committed trace-regression baseline (run on a quiet machine).
testdata/trace-baseline-rmat14.jsonl:
	$(GO) run ./cmd/connect -gen rmat -scale 14 -seed 42 -trace $@

# Serving smoke: boot connserve on an ephemeral port, wait for the
# readiness gate, probe each query endpoint, then run a short load burst
# through the in-process serving benchmark.
serve-smoke:
	$(GO) test -run 'TestServeLifecycle' -count=1 ./cmd/connserve
	$(GO) run ./cmd/bench -experiment serve -scale 0.02 -procs 2 -json /tmp/parconn-serve-smoke.json
	$(GO) run ./cmd/tracestat serve /tmp/parconn-serve-smoke.json /tmp/parconn-serve-smoke.json

# Re-measure serving QPS/latency and gate against the committed baseline.
# Loose tolerance for the same reason as trace-regression: CI hosts differ
# from the recording machine, so only order-of-magnitude serving blowups
# should trip (tracestat serve's default 2x is for same-machine use).
serve-regression:
	$(GO) run ./cmd/bench -experiment serve -scale 0.1 -procs 2 -seed 42 -json /tmp/parconn-serve-regression.json
	$(GO) run ./cmd/tracestat serve -tol 10 -floor 2ms BENCH_serve.json /tmp/parconn-serve-regression.json

# Refresh the committed serving baseline (run on a quiet machine).
BENCH_serve.json:
	$(GO) run ./cmd/bench -experiment serve -scale 0.1 -procs 2 -seed 42 -json $@

# Churn smoke: boot connserve with the incremental layer through the
# insert lifecycle test, then run a short interleaved insert/query burst
# through the in-process churn benchmark and self-diff the report.
churn-smoke:
	$(GO) test -run 'TestInsertLifecycle' -count=1 ./cmd/connserve
	$(GO) run ./cmd/bench -experiment churn -scale 0.02 -procs 2 -json /tmp/parconn-churn-smoke.json
	$(GO) run ./cmd/tracestat churn /tmp/parconn-churn-smoke.json /tmp/parconn-churn-smoke.json

# Re-measure churn QPS/latency and gate against the committed baseline.
# Same loose tolerance as serve-regression: only order-of-magnitude insert
# or query blowups should trip on shared CI hosts.
churn-regression:
	$(GO) run ./cmd/bench -experiment churn -scale 0.1 -procs 2 -seed 42 -json /tmp/parconn-churn-regression.json
	$(GO) run ./cmd/tracestat churn -tol 10 -floor 2ms BENCH_churn.json /tmp/parconn-churn-regression.json

# Refresh the committed churn baseline (run on a quiet machine).
BENCH_churn.json:
	$(GO) run ./cmd/bench -experiment churn -scale 0.1 -procs 2 -seed 42 -json $@

# Metrics smoke: boot connserve with span sampling on every request, drive
# each endpoint class (queries, batch, a 4xx, an insert), and assert the
# /metrics exposition carries the request counters, error taxonomy, rolling
# latency quantiles, and runtime series — plus a JSONL span trace that
# validates against the schema.
metrics-smoke:
	$(GO) test -run 'TestMetricsEndpoint' -count=1 ./cmd/connserve

# Re-measure SLO attainment (the fraction of scrape windows whose rolling
# P99 stayed under the 25ms default target, graded live off /metrics during
# the load run) for the serving and churn benchmarks, and gate against the
# committed baselines' attainment columns. Attainment is a fraction of the
# run's own windows, not an absolute time, so unlike serve-regression this
# gate is meaningful across machines of similar class; rows recorded
# without SLO data are skipped.
slo-regression:
	$(GO) run ./cmd/bench -experiment serve -scale 0.1 -procs 2 -seed 42 -json /tmp/parconn-serve-slo.json
	$(GO) run ./cmd/tracestat slo BENCH_serve.json /tmp/parconn-serve-slo.json
	$(GO) run ./cmd/bench -experiment churn -scale 0.1 -procs 2 -seed 42 -json /tmp/parconn-churn-slo.json
	$(GO) run ./cmd/tracestat slo BENCH_churn.json /tmp/parconn-churn-slo.json

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

# Alternating before/after pairs of one perfbench workload against a parent
# revision (extracted with git archive), summarised as EXPERIMENTS.md's
# median [quartiles] / wins table, e.g.
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

# Everything that must pass before a change lands: formatting, go vet, and
# the repository's own static analyses (see DESIGN.md "Correctness tooling").
check: fmt-check vet

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

clean:
	rm -rf results_csv
