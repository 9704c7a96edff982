#!/usr/bin/env bash
# Builds the benchmark and the nocserve binary it drives from this
# checkout's sources, then runs the benchmark from the checkout root with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare runs-a/ runs-b/
#
# Build outputs, the Go build cache and temporary files stay inside the
# checkout, under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"

export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOTMPDIR="${build}/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

cd "${root}/bench"
go build -o "${build}/nocbench" .
go build -o "${build}/nocserve" wormnoc/cmd/nocserve

cd "${root}"
exec "${build}/nocbench" --nocserve "${build}/nocserve" "$@"
