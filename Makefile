GO ?= go

.PHONY: all build test vet fmt examples race golden verify alloc-guards bench-gates docs-check fuzz-smoke bench-smoke bench report-100k

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

# race runs the whole suite under the race detector, among it depserver's
# DNS listener answering queries while a snapshot build measures the world
# it serves (cmd/depserver).
race:
	$(GO) test -race ./...

# golden re-runs every byte-pinning golden test in the module on its own
# (-count=1 bypasses the test cache) so an intentional output change
# surfaces the new hashes to pin: the measurement pinning test, the
# chain-pass golden and the checkpoint emission golden
# (internal/measure), the Dyn replay, the
# mc-baseline Monte-Carlo sweep, the other three sweep presets
# (mc-entity-storm, mc-dns-deep, mc-dyn-recovery) and the K=25
# mitigation plan (internal/incident), the per-site breakdown, the
# Execute report, the ablation experiments and the -outage and
# robustness reports (internal/analysis), the landing pages with their
# chains (internal/ecosystem), the served provider rankings before and
# after a delta (internal/serve), the snapshot depserver publishes from
# the world its DNS listener serves against a standalone run
# (cmd/depserver), and the dynincident and evolution example outputs.
golden:
	$(GO) test -run 'Golden|Pinned' -count=1 -v ./...

# alloc-guards re-runs the allocation-budget tests on their own (-count=1
# bypasses the test cache): the resolver's direct lookups over an
# in-process store (exact hit, NXDOMAIN, NODATA) and its cache hits over a
# network transport, zone-store exact hits and misses (internal/dnszone),
# registrable-domain extraction (internal/publicsuffix), the compiled
# CDN-map matcher, the outage simulator's closure union counts (joint
# failures included) with a warmed scratch and the Monte-Carlo generator's
# reseed and draws (internal/rng) must stay
# within their per-op budgets; a mitigation plan's allocation count must
# not grow with its candidates (internal/core), and an outage sweep's
# bytes must not grow with the site count (internal/incident).
alloc-guards:
	$(GO) test -run 'Alloc' -count=1 ./internal/resolver/ ./internal/dnszone/ ./internal/publicsuffix/ ./internal/measure/ ./internal/core/ ./internal/rng/ ./internal/incident/

# bench-gates re-runs the hard performance and memory gates on their own
# (-count=1 bypasses the test cache; the gate files are built !race, since
# under the race detector timings and heap ratios measure the detector):
# a single-site delta at 100K sites beats a full rebuild by >= 10x, the
# compact graph retains >= 4x fewer bytes per site than the pointer graph
# at 100K, a 10K-site world's zones retain at most 150 bytes per record,
# the metrics engine's retained bytes per site grow at most 1.5x from 5K
# to 20K sites, and a 50K-site depscope run completes under a 4GiB memory
# budget and fails fast with the budget error under 32MiB.
bench-gates:
	$(GO) test -run '^TestGate' -count=1 . ./internal/core/ ./cmd/depscope/

# docs-check re-runs the documentation and orphan drift tests on their own (-count=1
# bypasses the test cache): every relative link/anchor in the curated docs
# must resolve, every flag documented in a flag table must exist in a
# cmd/ binary, every `make <target>` the docs name must be a target
# defined here, every test, benchmark or fuzz name the docs cite must be a
# func in the tree, every counter, gauge and histogram the metric catalog
# (docs/observability.md) names must be registered in non-test source,
# every example program must have a test, and every declaration under
# internal/ must be referenced by non-test code of the program or bench/,
# or be allowlisted with its reason (TestNoOrphanDeclarations, which
# type-checks both modules).
docs-check:
	$(GO) test -run 'TestDoc|TestEveryExampleHasTest|TestNoOrphanDeclarations' -count=1 .

# fuzz-smoke runs every `func Fuzz*` in the module with -fuzz for 2s each
# (plain go test only replays their seed corpora). Targets are found by
# scanning the _test.go files, so a new fuzz target joins without an edit
# here; bench/ is a module of its own and is skipped. A failing input is
# written under the package's testdata/fuzz, as go test -fuzz always does.
fuzz-smoke:
	@grep -rl --include='*_test.go' --exclude-dir=bench --exclude-dir=.git '^func Fuzz' . | sort | \
	while read -r f; do \
		for fn in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "fuzz-smoke: $$fn in $$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime 2s -parallel 2 "$$(dirname $$f)" || exit 1; \
		done; \
	done

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
# the allocation budgets, the performance and memory-budget gates, the
# example builds, the documentation drift checks, a 2s fuzzing run of every
# fuzz target, and the benchmark harness's vet and smoke tests (whose
# serve-10k smoke drives a depserver built from this tree and fails on any
# failed request).
verify: build vet fmt test race golden examples alloc-guards bench-gates docs-check fuzz-smoke bench-smoke

# report-100k regenerates docs/report-100k.txt, the report of a run at the
# paper's scale: the stdout of depscope -scale 100000 -seed 2020. It takes
# about 5-6 s and 0.9 GB RSS on 2 vCPUs, so verify does not run it.
report-100k:
	$(GO) run ./cmd/depscope -scale 100000 -seed 2020 > docs/report-100k.txt.tmp
	mv docs/report-100k.txt.tmp docs/report-100k.txt

# bench runs the repo benchmark (bench/README.md) once over every workload
# and prints the end-to-end result. For one workload, traced runs, result
# files or -compare, call bench/run.sh with its flags directly.
bench:
	bash bench/run.sh
