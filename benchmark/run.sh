#!/usr/bin/env bash
# run.sh builds the benchmark (a Go module of its own, in this directory)
# and runs it from the root of the checkout it sits in:
#
#   bash benchmark/run.sh --workload live-volatile --seed 1 --seconds 15 --trace 0
#
# Everything it writes — Go's build cache included — stays under
# .bench_build/ in the checkout. No network: the module has no
# dependencies beyond the repository itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Fails here, without a result, when this is not a checkout of the
# repository (the module's `replace repro => ../` has nothing to point at).
go build -C benchmark -o "$build/minsync-benchmark" .
exec "$build/minsync-benchmark" "$@"
