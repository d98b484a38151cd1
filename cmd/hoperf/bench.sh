#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): build hoperf
# from the checkout's sources into .bench_build, then run it with the
# driver's arguments. Everything the Go toolchain writes — build cache,
# module cache, telemetry — is kept inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$build/hoperf" .)
cd "$root"
exec "$build/hoperf" -build-dir "$build" "$@"
