#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-all --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, result and span files) stays under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home"

# Keep the Go toolchain's caches and config out of the user's home.
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-results" "$@"
