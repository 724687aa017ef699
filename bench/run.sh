#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (its own module,
# bench/go.mod) with every toolchain write kept inside the checkout, then
# hands the driver's flags to it. The benchmark builds cmd/pubsub-server
# itself. In a directory that holds only BENCHMARK.json and bench/ the build
# fails (no parent module to replace `repro` with) and the script exits
# non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" run -root "$root" "$@"
