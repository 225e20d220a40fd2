#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#	bash perfbench/run.sh --workload batch-warm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, cache and
# temporary file stays under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

(cd "$root/perfbench" && go build -o "$build/xsdfbench" .)
exec "$build/xsdfbench" "$@"
