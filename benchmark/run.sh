#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind stays inside the checkout: the Go build cache, module cache and
# telemetry directory go under .bench_build, results under benchmark/out.
#
#   bash benchmark/run.sh --workload smallfile-host --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -compare out/a out/b     (paths relative to benchmark/)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off XDG_CONFIG_HOME=$build/config
go build -C benchmark -o "$build/sorrento-benchmark" .
cd benchmark
exec "$build/sorrento-benchmark" "$@"
