#!/usr/bin/env bash
# Runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 30 --trace 0
#
# Build caches, child binaries and run files all stay under .bench_build in
# the checkout, and the Go toolchain is pinned to the local one with the
# module proxy off, so a run needs no network.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
  echo "perfbench: run from the root of a privconsensus checkout" >&2
  exit 2
fi
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
exec go -C perfbench run . -root "$root" "$@"
