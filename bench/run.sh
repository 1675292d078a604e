#!/usr/bin/env bash
# The gate's entry point (BENCHMARK.json "command"), run from the root
# of a checkout: build ./bench into .bench_build/ — Go's build cache is
# kept there too, so nothing is written outside the checkout — and run
# it with the given arguments. By hand, `go run ./bench` is the same
# program.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false
go build -o .bench_build/schedbench ./bench
exec .bench_build/schedbench "$@"
