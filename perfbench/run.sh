#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload capture_flood --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the repository root: the Go build cache, the binary, sealed ledgers and
# span files.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
