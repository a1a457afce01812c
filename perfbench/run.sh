#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (see main.go).  Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-delegate --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's data stay under
# .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
# Keep freed heap pages mapped (MADV_FREE) rather than returned to the
# kernel, so recovery timings do not depend on how much memory the
# runtime's scavenger released between restart cycles.
GODEBUG=madvdontneed=0 exec "$out/perfbench" "$@"
