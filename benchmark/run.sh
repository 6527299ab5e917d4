#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout it is run
# in, then run it with the driver's arguments. Everything the build writes —
# binary, Go build cache, temporary files — stays under .bench_build in the
# checkout; nothing is fetched (the module has no dependencies outside it).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOFLAGS="-mod=mod"
export GOTOOLCHAIN=local
export GOPROXY=off

# The benchmark is its own module (benchmark/go.mod) that replaces `repro`
# with the checkout around it, so it measures the code it sits in.
(cd "$here" && go build -o "$build/xpush-benchmark" .)

cd "$root"
exec "$build/xpush-benchmark" "$@"
