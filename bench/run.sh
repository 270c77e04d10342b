#!/usr/bin/env bash
# Builds the benchmark driver from source inside the checkout and runs it.
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout — the Go build cache, GOPATH and the go command's
# config directory (telemetry counters) included — so two checkouts never
# share state and nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$here" -o "$out/pptd-bench" .
exec "$out/pptd-bench" "$@"
