#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark (a module of
# its own that imports the repo's internal packages through the replace
# directive in bench/go.mod) and runs it from the checkout root. The Go
# build cache, the compiler's scratch space and the binary live under
# .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
go build -C bench -o ../.bench_build/dewsbench .
exec .bench_build/dewsbench "$@"
