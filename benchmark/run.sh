#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it with the given
# arguments: the command BENCHMARK.json names. Everything the build writes
# (the Go build cache included) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="${GOCACHE:-$root/.bench_build/go-cache}"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/wp2p-benchmark ./benchmark >&2
exec .bench_build/wp2p-benchmark "$@"
