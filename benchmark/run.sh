#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash benchmark/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and binary stay under .bench_build/ at
# the repository root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
