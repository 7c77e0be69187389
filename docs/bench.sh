#!/bin/sh
# Benchmark driver.
#
#   ./docs/bench.sh [suite] [benchtime]
#
# suite "metrics" (default "all") runs the provider-metrics benchmarks
# (Figure 5/6 renders and the batched C_p/I_p engine microbenchmarks) and
# rewrites BENCH_metrics.json at the repo root. Suite "pipeline" runs the
# staged measurement pipeline benchmarks (BenchmarkMeasureRun plus
# BenchmarkTelemetryOverhead — the same scale-10K workload under its
# telemetry-budget name; compare its ns/op against the pre-instrumentation
# BenchmarkMeasureRun record, budget <= 3%) and APPENDS one JSON record per
# benchmark, stamped with the run time, to BENCH_pipeline.json — keeping a
# history so pipeline regressions show up across commits. Suite "incident"
# runs the incident-engine sweep (top-100 single-provider outages at scale
# 2K through incident.Sweep) and rewrites BENCH_incident.json. Suite
# "serve" starts a real depserver (scale 2000, -prewarm), drives it with
# cmd/depload over the default endpoint mix, and rewrites BENCH_serve.json
# with the measured qps and p50/p99 latencies (ns_per_op is the p50).
# Suite "serve-smoke" is the CI-sized version (scale 300, 1s, no file
# written) wired into make verify. Suite "delta" runs the incremental graph
# engine benchmark (a single-site delta vs a full graph rebuild at 2K and
# 100K), rewrites BENCH_delta.json, and fails unless the 100K delta arm is
# at least 10x faster than the rebuild arm. Suite "chain" runs the
# chain-enabled measurement pipeline benchmark (BenchmarkChainMeasure: all
# four passes with resource chains materialized, a 2K arm and the
# paper-scale 100K arm) plus the page layer alone (BenchmarkMaterializePages:
# every 10K-scale Y2020 landing page with chains, one batch) and rewrites
# BENCH_chain.json; the edges/s metric in the raw output is informational —
# only ns/op is recorded and compared.
# Suite "scale" runs the columnar-engine scale benchmarks
# (BenchmarkGraphBytes: pointer vs compact graph construction at 100K with
# the retained bytes_per_site metric; BenchmarkMeasureRun1M: the full
# 1M-site compact pipeline under an 8GiB budget, one iteration), rewrites
# BENCH_scale.json, and fails unless the compact arm's bytes_per_site is
# at least 4x below the pointer arm's. Suite "scale-smoke" is the CI-sized
# budget exercise wired into make verify: a 50K -compact depscope run must
# complete under a workable budget AND fail fast under an impossible one;
# no record written. Suite "all" runs metrics, pipeline, incident, delta,
# chain and serve — not scale, whose 1M arm is a multi-minute run invoked
# deliberately via make bench-scale.
#
# Every record-writing suite warns when a recorded line ran with fewer than
# 2 iterations (a single sample is noise-prone); BenchmarkMeasureRun1M is
# the deliberate exception — one iteration IS a full 1M-site run.
#
# Suite "compare" runs every recorded benchmark fresh — including a serve
# load run — and diffs its ns/op against the committed BENCH_*.json records
# (for the append-history pipeline file, against the most recent record per
# benchmark) without rewriting any of them. A benchmark more than 10%
# slower than its record fails the comparison (25% for the LoadServe*
# records: wall-clock HTTP latency under OS scheduling jitter is noisier
# than cooked go-bench averages); bytes_per_op and bytes_per_site are also
# diffed, with a 15% band; benchmarks present on only one side are
# reported and skipped.
set -eu

cd "$(dirname "$0")/.."
suite="${1:-all}"
benchtime="${2:-1s}"

# bench_json RAWFILE: convert `go test -bench` output to a stream of JSON
# objects, one per benchmark line (no surrounding array).
bench_json() {
	awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = ""; bytes = ""; allocs = ""; persite = ""
		for (i = 2; i <= NF; i++) {
			if ($(i) == "ns/op")          ns = $(i - 1)
			if ($(i) == "B/op")           bytes = $(i - 1)
			if ($(i) == "allocs/op")      allocs = $(i - 1)
			if ($(i) == "bytes_per_site") persite = $(i - 1)
		}
		if (ns == "") next
		printf "{\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, ns
		if (bytes != "")   printf ", \"bytes_per_op\": %s", bytes
		if (allocs != "")  printf ", \"allocs_per_op\": %s", allocs
		if (persite != "") printf ", \"bytes_per_site\": %s", persite
		print "}"
	}
	' "$1"
}

# warn_low_iters RAWFILE: a recorded ns/op averaged over a single iteration
# is one noisy sample, not a benchmark; flag it. BenchmarkMeasureRun1M is
# exempt — its unit of interest is one complete 1M-site run.
warn_low_iters() {
	awk '
	/^Benchmark/ && / ns\/op/ && $1 !~ /^BenchmarkMeasureRun1M/ && $2 + 0 < 2 {
		printf "warning: %s recorded with %d iteration(s); raise -benchtime so the record averages >= 2\n", $1, $2
	}
	' "$1" >&2
}

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# Scale/duration of the recorded serve load run; the smoke run shrinks both.
SERVE_SCALE=2000
SERVE_DURATION=5s
SERVE_CONC=32
SERVE_SITES=500

# run_serve SCALE DURATION CONC SITES: build depserver+depload, bring a
# prewarmed server up on ephemeral ports, run the timed load phase and print
# depload's JSON records (one per endpoint) on stdout. The server's logs
# stay in a temp file unless something fails.
run_serve() {
	bindir=$(mktemp -d)
	go build -o "$bindir/depserver" ./cmd/depserver
	go build -o "$bindir/depload" ./cmd/depload
	"$bindir/depserver" -scale "$1" -addr 127.0.0.1:0 -http 127.0.0.1:0 -prewarm \
		>"$bindir/depserver.log" 2>&1 &
	serve_pid=$!
	admin=""
	for _ in $(seq 1 100); do
		admin=$(sed -n 's|.*admin endpoint on http://\([^/]*\)/metrics.*|\1|p' "$bindir/depserver.log")
		[ -n "$admin" ] && break
		kill -0 "$serve_pid" 2>/dev/null || break
		sleep 0.1
	done
	if [ -z "$admin" ]; then
		echo "depserver did not come up:" >&2
		cat "$bindir/depserver.log" >&2
		kill "$serve_pid" 2>/dev/null || true
		rm -rf "$bindir"
		return 1
	fi
	rc=0
	"$bindir/depload" -addr "http://$admin" -duration "$2" -concurrency "$3" \
		-sites "$4" -fail-on-error || rc=$?
	kill "$serve_pid" 2>/dev/null || true
	wait "$serve_pid" 2>/dev/null || true
	rm -rf "$bindir"
	return "$rc"
}

if [ "$suite" = "compare" ]; then
	go test -run '^$' \
		-bench 'BenchmarkFigure5ProviderConcentration|BenchmarkFigure6ConcentrationCDF|BenchmarkTopProvidersBatch|BenchmarkDeltaApply' \
		-benchmem -benchtime "$benchtime" ./... | tee "$raw"
	go test -run '^$' -bench 'BenchmarkMeasureRun$|BenchmarkTelemetryOverhead$' \
		-benchmem -benchtime 3x ./internal/measure/ | tee -a "$raw"
	go test -run '^$' -bench 'BenchmarkIncidentSweep$|BenchmarkIncidentMonteCarlo$' \
		-benchmem -benchtime 5x ./internal/incident/ | tee -a "$raw"
	go test -run '^$' -bench 'BenchmarkChainMeasure' \
		-benchmem -benchtime 3x ./internal/measure/ | tee -a "$raw"
	go test -run '^$' -bench 'BenchmarkMaterializePages$' \
		-benchmem -benchtime 10x ./internal/ecosystem/ | tee -a "$raw"
	# The scale suite's 1M arm is deliberately not re-run here (it is a
	# multi-minute full pipeline); it shows up as "missing", which does not
	# fail the comparison. The 100K bytes_per_site arms are cheap enough.
	go test -run '^$' -bench 'BenchmarkGraphBytes' \
		-benchmem -benchtime 3x -timeout 20m . | tee -a "$raw"

	fresh=$(mktemp)
	report=$(mktemp)
	trap 'rm -f "$raw" "$fresh" "$report"' EXIT
	bench_json "$raw" > "$fresh"
	# The serve load records are produced by depload directly, not go test.
	run_serve "$SERVE_SCALE" "$SERVE_DURATION" "$SERVE_CONC" "$SERVE_SITES" >> "$fresh"

	# Join fresh ns/op against the committed records. Both sides are one
	# JSON object per line; for the committed side, later lines overwrite
	# earlier ones, which picks the most recent record out of the pipeline
	# history file.
	status=0
	awk -v freshfile="$fresh" '
	function field(s, key,    r) {
		# Tolerates both pretty ("key": v) and compact ("key":v) JSON — the
		# depload records are compact, the bench_json ones are not.
		if (!match(s, "\"" key "\": ?\"?[^,}\"]+")) return ""
		r = substr(s, RSTART, RLENGTH)
		sub("^\"" key "\": ?\"?", "", r)
		return r
	}
	{
		name = field($0, "name")
		ns = field($0, "ns_per_op")
		if (name == "" || ns == "") next
		b = field($0, "bytes_per_op")
		ps = field($0, "bytes_per_site")
		if (FILENAME == freshfile) {
			freshns[name] = ns + 0
			if (b != "")  freshb[name] = b + 0
			if (ps != "") freshps[name] = ps + 0
		} else {
			committed[name] = ns + 0
			if (b != "")  commb[name] = b + 0
			if (ps != "") commps[name] = ps + 0
		}
	}
	# check NAME OLD CUR LIMIT UNIT: print one verdict line; return 1 on a
	# regression beyond the band.
	function check(name, old, cur, limit, unit,    verdict) {
		verdict = "ok"
		if (cur > old * limit) verdict = "REGRESSED"
		printf "%-10s %-55s %14.0f -> %.0f %s (%+.1f%%)\n", verdict, name, old, cur, unit, (cur - old) / old * 100
		return verdict == "REGRESSED"
	}
	END {
		bad = 0
		for (name in freshns) {
			if (!(name in committed)) {
				printf "new        %-55s %14.0f ns/op (no committed record)\n", name, freshns[name]
				continue
			}
			# Wall-clock HTTP latency (LoadServe*) jitters more than cooked
			# go-bench averages; give it a wider band. Allocation footprints
			# (bytes_per_op, bytes_per_site) are steadier than timings but a
			# GC-sampled retained heap still wobbles: 15% band.
			limit = (name ~ /^LoadServe/) ? 1.25 : 1.10
			bad += check(name, committed[name], freshns[name], limit, "ns/op")
			if ((name in freshb) && (name in commb) && commb[name] > 0)
				bad += check(name, commb[name], freshb[name], 1.15, "B/op")
			if ((name in freshps) && (name in commps) && commps[name] > 0)
				bad += check(name, commps[name], freshps[name], 1.15, "bytes_per_site")
		}
		for (name in committed) {
			if (!(name in freshns))
				printf "missing    %-55s committed record was not exercised\n", name
		}
		exit bad > 0
	}
	' BENCH_metrics.json BENCH_pipeline.json BENCH_incident.json BENCH_delta.json BENCH_chain.json BENCH_scale.json BENCH_serve.json "$fresh" > "$report" || status=1
	sort "$report"
	if [ "$status" -ne 0 ]; then
		echo "bench compare: regression above the allowed band (ns/op, B/op or bytes_per_site)" >&2
	fi
	exit "$status"
fi

if [ "$suite" = "serve-smoke" ]; then
	# CI-sized end-to-end exercise of the serve path: tiny world, short
	# timed phase, any failed request fails the target; no record written.
	run_serve 300 1s 8 100 > /dev/null
	echo "serve smoke ok"
	exit 0
fi

if [ "$suite" = "serve" ] || [ "$suite" = "all" ]; then
	out=BENCH_serve.json
	records=$(mktemp)
	run_serve "$SERVE_SCALE" "$SERVE_DURATION" "$SERVE_CONC" "$SERVE_SITES" > "$records"
	{
		echo "["
		sed '$!s/$/,/; s/^/  /' "$records"
		echo "]"
	} > "$out"
	rm -f "$records"
	echo "wrote $out"
fi

if [ "$suite" = "metrics" ] || [ "$suite" = "all" ]; then
	out=BENCH_metrics.json
	go test -run '^$' \
		-bench 'BenchmarkFigure5ProviderConcentration|BenchmarkFigure6ConcentrationCDF|BenchmarkTopProvidersBatch' \
		-benchmem -benchtime "$benchtime" ./... | tee "$raw"
	warn_low_iters "$raw"
	{
		echo "["
		bench_json "$raw" | sed '$!s/$/,/; s/^/  /'
		echo "]"
	} > "$out"
	echo "wrote $out"
fi

if [ "$suite" = "pipeline" ] || [ "$suite" = "all" ]; then
	out=BENCH_pipeline.json
	# One iteration of the full 10K-site pipeline is the unit of interest;
	# -benchtime 3x keeps the suite bounded while averaging enough warm runs
	# that the recorded ns/op is not a single sample.
	go test -run '^$' -bench 'BenchmarkMeasureRun$|BenchmarkTelemetryOverhead$' \
		-benchmem -benchtime 3x ./internal/measure/ | tee "$raw"
	warn_low_iters "$raw"
	stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
	bench_json "$raw" | sed "s/^{/{\"utc\": \"$stamp\", /" >> "$out"
	echo "appended to $out"
fi

if [ "$suite" = "delta" ] || [ "$suite" = "all" ]; then
	out=BENCH_delta.json
	go test -run '^$' -bench 'BenchmarkDeltaApply' \
		-benchmem -benchtime "$benchtime" ./internal/core/ | tee "$raw"
	warn_low_iters "$raw"
	{
		echo "["
		bench_json "$raw" | sed '$!s/$/,/; s/^/  /'
		echo "]"
	} > "$out"
	echo "wrote $out"
	# Acceptance gate: at the paper's 100K scale, applying a single-site
	# delta must beat a from-scratch rebuild by at least 10x.
	awk '
	/"name": "BenchmarkDeltaApply\/delta\/100K"/   { if (match($0, /"ns_per_op": [0-9.e+]+/)) d = substr($0, RSTART + 13, RLENGTH - 13) + 0 }
	/"name": "BenchmarkDeltaApply\/rebuild\/100K"/ { if (match($0, /"ns_per_op": [0-9.e+]+/)) r = substr($0, RSTART + 13, RLENGTH - 13) + 0 }
	END {
		if (d == 0 || r == 0) { print "delta suite: missing 100K records" > "/dev/stderr"; exit 1 }
		printf "delta speedup at 100K: %.1fx (delta %.0f ns/op vs rebuild %.0f ns/op)\n", r / d, d, r
		if (r / d < 10) { print "delta suite: speedup below the required 10x" > "/dev/stderr"; exit 1 }
	}
	' "$out"
fi

if [ "$suite" = "chain" ] || [ "$suite" = "all" ]; then
	out=BENCH_chain.json
	# A single chain-enabled pipeline run is the unit of interest, and the
	# 100K arm is a full paper-scale measurement — but one iteration is one
	# noisy sample, so the record averages three.
	go test -run '^$' -bench 'BenchmarkChainMeasure' \
		-benchmem -benchtime 3x -timeout 20m ./internal/measure/ | tee "$raw"
	# The page layer on its own: cheap, so ten iterations per record.
	go test -run '^$' -bench 'BenchmarkMaterializePages$' \
		-benchmem -benchtime 10x ./internal/ecosystem/ | tee -a "$raw"
	warn_low_iters "$raw"
	{
		echo "["
		bench_json "$raw" | sed '$!s/$/,/; s/^/  /'
		echo "]"
	} > "$out"
	echo "wrote $out"
fi

if [ "$suite" = "scale" ]; then
	out=BENCH_scale.json
	# Two benchmarks: the 100K bytes_per_site comparison (three iterations —
	# the retained-heap metric is steadier than timings but still sampled),
	# and the 1M-site end-to-end compact run, whose single iteration IS the
	# measurement (generate + stream-measure + columnar build under 8GiB).
	go test -run '^$' -bench 'BenchmarkGraphBytes' \
		-benchmem -benchtime 3x -timeout 20m . | tee "$raw"
	go test -run '^$' -bench 'BenchmarkMeasureRun1M$' \
		-benchmem -benchtime 1x -timeout 60m . | tee -a "$raw"
	warn_low_iters "$raw"
	{
		echo "["
		bench_json "$raw" | sed '$!s/$/,/; s/^/  /'
		echo "]"
	} > "$out"
	echo "wrote $out"
	# Acceptance gate: the columnar graph must retain at least 4x fewer
	# bytes per site than the pointer graph at the paper's 100K scale.
	awk '
	/"name": "BenchmarkGraphBytes\/pointer-100K"/ { if (match($0, /"bytes_per_site": [0-9.e+]+/)) p = substr($0, RSTART + 18, RLENGTH - 18) + 0 }
	/"name": "BenchmarkGraphBytes\/compact-100K"/ { if (match($0, /"bytes_per_site": [0-9.e+]+/)) c = substr($0, RSTART + 18, RLENGTH - 18) + 0 }
	END {
		if (p == 0 || c == 0) { print "scale suite: missing bytes_per_site records" > "/dev/stderr"; exit 1 }
		printf "compact graph advantage at 100K: %.1fx (%.0f vs %.0f bytes/site)\n", p / c, c, p
		if (p / c < 4) { print "scale suite: bytes_per_site advantage below the required 4x" > "/dev/stderr"; exit 1 }
	}
	' "$out"
fi

if [ "$suite" = "scale-smoke" ]; then
	# CI-sized budget exercise: the same -compact/-mem-budget path the 1M
	# run uses, at 50K. A workable budget must complete; an impossibly small
	# one must fail fast with the budget error, not crawl or OOM.
	bindir=$(mktemp -d)
	go build -o "$bindir/depscope" ./cmd/depscope
	"$bindir/depscope" -scale 50000 -mem-budget 4GiB -q -experiment table1 > /dev/null
	if out=$("$bindir/depscope" -scale 50000 -mem-budget 32MiB -q -experiment table1 2>&1 >/dev/null); then
		echo "scale smoke: 32MiB-budget run unexpectedly succeeded" >&2
		rm -rf "$bindir"
		exit 1
	fi
	rm -rf "$bindir"
	case "$out" in
	*"memory budget exceeded"*) ;;
	*)
		echo "scale smoke: tiny-budget run failed without the budget error:" >&2
		echo "$out" >&2
		exit 1
		;;
	esac
	echo "scale smoke ok (50K compact run completed under 4GiB; 32MiB run failed fast with the budget error)"
	exit 0
fi

if [ "$suite" = "incident" ] || [ "$suite" = "all" ]; then
	out=BENCH_incident.json
	# One iteration sweeps 100 single-provider scenarios (deterministic) or
	# samples 1000 Monte-Carlo draws (randomized); a handful of iterations
	# averages warm caches without dragging the suite out.
	go test -run '^$' -bench 'BenchmarkIncidentSweep$|BenchmarkIncidentMonteCarlo$' \
		-benchmem -benchtime 5x ./internal/incident/ | tee "$raw"
	warn_low_iters "$raw"
	{
		echo "["
		bench_json "$raw" | sed '$!s/$/,/; s/^/  /'
		echo "]"
	} > "$out"
	echo "wrote $out"
fi
