#!/usr/bin/env bash
# Builds the MDZ performance benchmark from source and runs it. Run it from
# the repository root; arguments go to the benchmark, for example:
#
#   bash internal/bench/perf/run.sh --workload insitu-long --seed 1 --seconds 15 --trace 0
#
# The build, the Go caches and the benchmark's temporary files all stay in
# .bench_build/ under the repository root, and no network access is tried.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOTELEMETRY=off

go -C internal/bench/perf build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
