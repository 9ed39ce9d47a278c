#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash benchmark/run.sh --workload matrix --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# config directory) stays under the build directory, which defaults to
# .bench_build in the current directory and follows CARGO_TARGET_DIR when
# that is set.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$here" && go build -o "$build/parrot-benchmark" .)
exec "$build/parrot-benchmark" "$@"
