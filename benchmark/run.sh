#!/bin/bash
# Builds the benchmark from source and runs it, reading and writing only
# inside the checkout: the Go build cache, the build's temporary files
# and the binaries all live under .bench_build at the repository root.
#
#   bash benchmark/run.sh --workload vm_interp --seed 1 --seconds 14 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOENV=off GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
