#!/usr/bin/env bash
# Builds galsbench from this checkout and runs it with the given arguments,
# for example:
#
#   bash bench/run.sh --workload run-phase-seq --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# checkout root: the Go build cache, temporary files, galsd's cache
# directories and span files. The build never touches the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$build/galsbench" ./galsbench
exec "$build/galsbench" "$@"
