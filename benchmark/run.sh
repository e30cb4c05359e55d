#!/usr/bin/env bash
# Build file and launcher of the benchmark (BENCHMARK.json's command).
# Builds the harness from the checkout's sources into .bench_build/ and
# runs it with the caller's arguments; the Go build cache, temporary
# files and the toolchain's own config directory stay inside the
# checkout too. Run it from the repository root:
#
#   bash benchmark/run.sh --workload http_pooled --seed 1 --seconds 12 --trace 0
set -euo pipefail

# Without the program's sources there is nothing to measure: refuse before
# the toolchain is started at all.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: no go.mod and internal/ here; run from the root of a full checkout" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# On its first run under a fresh config directory the go command detaches
# a telemetry child that outlives it. Telemetry mode "off" (GOTELEMETRY
# itself is read-only) keeps the toolchain to processes that `go build`
# waits for.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
