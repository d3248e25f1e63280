#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs
# it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload node-read-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# everything the benchmark writes while it runs stay under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$out/kplistbench" .)
exec "$out/kplistbench" "$@"
