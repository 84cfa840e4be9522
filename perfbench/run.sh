#!/usr/bin/env bash
# Builds the wsxd benchmark from source and runs it from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the checkout (Go build cache, binaries, fixtures, data dirs, traces).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -build "$build" "$@"
