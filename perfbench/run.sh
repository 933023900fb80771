#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload kogge64 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, result
# and span files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
