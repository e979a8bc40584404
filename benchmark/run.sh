#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. BENCHMARK.json names this script as the command, so a run
# writes nothing outside the checkout: the Go build cache and the binary
# live under .bench_build/ (ignored by git).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
