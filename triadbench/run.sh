#!/usr/bin/env bash
# Builds triadbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash triadbench/run.sh --workload stamp --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# everything the benchmark writes stay under .bench_build/.
set -euo pipefail
out=.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/triadbench" ./triadbench
exec "$out/triadbench" --workdir "$out" "$@"
