#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload cpu-figures --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
cd "$root"
exec "$build/perfbench-bin" "$@"
