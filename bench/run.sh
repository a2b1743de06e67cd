#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# arguments given. Every file it or the Go toolchain writes (build cache,
# binary, the daemon's data directories) lands under .bench_build/ in the
# current directory, which is the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bench" .
exec "$build/bench" -scratch "$build/scratch" "$@"
