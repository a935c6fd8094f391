#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload stream-lsb --seed 7 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under .bench_build/ at the repository root. Nothing is downloaded:
# the module has no dependencies beyond the enclosing lowsensing module.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

cd "$root"
go build -C bench -buildvcs=false -o "$build/bench" .
exec "$build/bench" "$@"
