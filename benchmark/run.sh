#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds the benchmark from source into
# .bench_build/ under the current directory (the root of a checkout) and
# runs it with the arguments given:
#
#   bash benchmark/run.sh --workload tcp-get --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and WAL directories all stay under
# .bench_build/, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C "$root/benchmark" build -o "$build/voronet-benchmark" .
exec "$build/voronet-benchmark" "$@"
