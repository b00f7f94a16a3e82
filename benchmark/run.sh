#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, journal
# directories and result files.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-modcacherw
go build -C benchmark -o "$out/crosse-benchmark" .
exec "$out/crosse-benchmark" "$@"
