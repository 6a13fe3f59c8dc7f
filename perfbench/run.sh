#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it. Run from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload tpcw-read --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the databases and the spans.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
stamp="$out/build-stamp"
touch "$stamp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Write back what the build left dirty now: the durable workloads fsync on
# every commit, and a journal commit would otherwise flush the build cache
# inside the measured run.
find "$out" -type f -newer "$stamp" -print0 | xargs -0 -r sync --
exec "$out/perfbench" "$@"
