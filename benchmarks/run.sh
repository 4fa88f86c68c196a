#!/usr/bin/env bash
# The BENCHMARK.json command: build crestperf from source and run it
# with the driver's arguments. Run from the root of a checkout.
#
# Everything the build leaves behind goes under .bench_build/ in that
# checkout (binary, Go build cache, CPU profiles of traced runs), so the
# benchmark reads and writes nothing outside it. The first build in a
# fresh checkout also compiles the standard library into that cache;
# later invocations find everything cached.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/crestperf" ./crestperf)
exec "$build/crestperf" "$@"
