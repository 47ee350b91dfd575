#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one workload:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# file the benchmark writes (stores, Chrome traces) stay under .bench_build/
# in the checkout. Outside a full checkout (no ../go.mod next to perfbench/)
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out" "$@"
