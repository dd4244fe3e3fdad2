#!/usr/bin/env bash
# BENCHMARK.json's command: build the driver from the checkout's source
# and run it with the arguments given. Everything the build and the run
# write (Go build cache, binary, scratch indexes, trace.json) stays under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/hdbenchmark" ./benchmark
exec "$out/hdbenchmark" "$@"
