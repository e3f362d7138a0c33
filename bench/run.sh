#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# caller's arguments. Everything the build writes (Go build cache, module
# path, toolchain counters, binary) stays under .bench_build/ at the
# checkout root, so a run leaves nothing outside the checkout.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$bench")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOPROXY=off
XDG_CONFIG_HOME="$out/config" go build -C "$bench" -o "$out/microfaas-bench" .
exec "$out/microfaas-bench" "$@"
