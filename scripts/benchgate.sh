#!/bin/sh
# Asserts the zero-allocation steady state of the simulation arena: after
# one warm-up run, resimulating a prebuilt executable on a reused arena
# must not allocate (DESIGN.md §13). The measurement lives in rcbench
# (-gate), which counts runtime.MemStats.Mallocs across warm runs and
# fails if the per-run average reaches 1. Guards against the class of
# regression where a hot-path change quietly reintroduces a per-run (or
# worse, per-cycle) allocation and sweep throughput decays with GC load.
#
# The same run checks the cold path's bytes: one Build plus a verified run
# on a fresh arena (cpp at the center configuration) must allocate under
# 8 MiB (runtime.MemStats.TotalAlloc delta), so a dense memory image
# returning to Build's interpreter runs or to a fresh machine fails here.
#
# Run from the repository root: sh scripts/benchgate.sh
set -u

GO=${GO:-go}

if ! $GO run ./cmd/rcbench -gate; then
    echo "benchgate: allocation check failed" >&2
    exit 1
fi
