GO ?= go

.PHONY: all build test vet fmt examples race golden verify alloc-guards docs-check bench-smoke bench bench-pipeline bench-incident bench-delta bench-chain bench-scale bench-compare loadtest loadtest-smoke scale-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet covers every package in the module, example programs included (they
# carry no build tags, so the bare invocation reaches them).
vet:
	$(GO) vet ./...

# fmt fails (listing the offenders) when any tracked Go file is not
# gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# examples compiles every standalone example program.
examples:
	$(GO) build ./examples/...

race:
	$(GO) test -race ./...

# golden re-runs every byte-pinning golden test in the module on its own
# (-count=1 bypasses the test cache) so an intentional output change
# surfaces the new hashes to pin: the measurement pinning test and the
# chain-pass golden (internal/measure), the Dyn replay, the
# mc-baseline Monte-Carlo sweep and the K=25 mitigation plan
# (internal/incident), the per-site breakdown and the -outage and
# robustness reports (internal/analysis), and the landing pages with
# their chains (internal/ecosystem).
golden:
	$(GO) test -run 'Golden|Pinned' -count=1 -v ./...

# alloc-guards re-runs the allocation-budget tests on their own (-count=1
# bypasses the test cache): resolver cache hits, interner hit paths, the
# compiled CDN-map matcher and the outage simulator's RunCounts with a
# warmed scratch must stay within their per-op budgets.
alloc-guards:
	$(GO) test -run 'Alloc' -count=1 ./internal/resolver/ ./internal/measure/ ./internal/intern/ ./internal/core/

# docs-check re-runs the documentation drift tests on their own (-count=1
# bypasses the test cache): every relative link/anchor in the curated docs
# must resolve, and every flag documented in a flag table must exist in a
# cmd/ binary.
docs-check:
	$(GO) test -run 'TestDoc' -count=1 .

# bench-smoke vets and tests the repo benchmark harness under bench/ (a Go
# module of its own, so ./... from the root never reaches it). It builds
# against this checkout's internal packages, so an API change that breaks
# the harness fails here rather than in a benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# verify is the full pre-merge gate: compile, static checks, formatting
# (gofmt -l walks the whole tree, internal/intern included), the plain
# suite, the race-enabled suite (which covers the pipeline cancellation,
# simulation-abort and pool-shutdown tests), the golden byte-pinning tests,
# the allocation budgets, the example builds, the documentation drift
# checks, the benchmark harness's vet and smoke tests, a small end-to-end
# load smoke of the query API (depserver + depload, scale 300, 1s), and the
# memory-budget smoke of the streaming engine (50K -compact run: completes
# under a workable budget, fails fast under an impossible one).
verify: build vet fmt test race golden examples alloc-guards docs-check bench-smoke loadtest-smoke scale-smoke

# loadtest runs the recorded serve load measurement: a prewarmed depserver
# at scale 2000 driven by cmd/depload over the default endpoint mix, with
# measured qps and p50/p99 latency rewritten into BENCH_serve.json.
loadtest:
	./docs/bench.sh serve

# loadtest-smoke is the CI-sized serve exercise wired into verify: tiny
# world, 1s timed phase, fails on any failed request; writes no record.
loadtest-smoke:
	./docs/bench.sh serve-smoke

# bench runs the headline metric benchmarks (Figure 5/6 renders plus the
# batched C_p/I_p engine microbenchmarks) and writes BENCH_metrics.json,
# then the staged measurement pipeline benchmark into BENCH_pipeline.json.
bench:
	./docs/bench.sh

# bench-pipeline runs only the scale-10K measurement pipeline benchmark.
bench-pipeline:
	./docs/bench.sh pipeline

# bench-incident runs only the incident-engine sweep benchmark and rewrites
# BENCH_incident.json.
bench-incident:
	./docs/bench.sh incident

# bench-delta runs the incremental graph engine benchmark (single-site delta
# vs full rebuild at 2K/100K), rewrites BENCH_delta.json, and fails unless
# the 100K delta arm beats the rebuild arm by >= 10x.
bench-delta:
	./docs/bench.sh delta

# bench-chain runs the chain-enabled measurement pipeline benchmark (2K and
# paper-scale 100K arms) and rewrites BENCH_chain.json.
bench-chain:
	./docs/bench.sh chain

# bench-scale runs the columnar-engine scale benchmarks: the pointer-vs-
# compact bytes_per_site comparison at 100K and the 1M-site end-to-end run
# under an 8GiB budget. Rewrites BENCH_scale.json and fails unless the
# compact graph holds a >= 4x bytes/site advantage. The 1M arm takes
# minutes — this target is deliberately not part of `make bench`.
bench-scale:
	./docs/bench.sh scale

# scale-smoke is the CI-sized memory-budget exercise wired into verify: a
# 50K -compact depscope run must complete under 4GiB and fail fast (with
# the greppable budget error) under 32MiB; writes no record.
scale-smoke:
	./docs/bench.sh scale-smoke

# bench-compare reruns every recorded benchmark and diffs ns/op against the
# committed BENCH_*.json records; any benchmark more than 10% slower than
# its record fails the target. No record file is rewritten.
bench-compare:
	./docs/bench.sh compare
