#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#   bash benchmark/run.sh --workload steady-pool --seed 1 --seconds 10 --trace 0
# Build products, the Go build cache and run scratch stay under .bench_build.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the repository root (go.mod, internal/ and benchmark/ must be present)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/meadbench" .)
exec "$out/meadbench" "$@"
