#!/usr/bin/env bash
# Builds the benchmark harness (bench/, a Go module of its own) and runs it
# from the repository root, passing every argument through, e.g.
#
#   bash bench/run.sh --workload paper-10k --seed 2020 --seconds 10 --trace 0
#
# Everything the build and the runs write goes under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/depscope || ! -d cmd/depserver || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, cmd/depscope, cmd/depserver and bench/)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
