#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#	bash bench/run.sh --workload live-sweep --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files all live
# under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$build/gcbench" .
exec "$build/gcbench" "$@"
