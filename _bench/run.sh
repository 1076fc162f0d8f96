#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the root of the repository:
#
#   bash _bench/run.sh --workload stream-live --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the span files of traced runs all go
# under .bench_build/perfbench, so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd _bench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out" "$@"
