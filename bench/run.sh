#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Everything the Go toolchain writes (build cache, binary) stays
# under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
