#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it from the checkout
# root. Everything Go writes (build cache, binaries) stays under
# .bench_build/, so a run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/veridp-loadbench" .)
exec "$build/veridp-loadbench" "$@"
