#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary and the span
# files of traced runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

# Keep the go command inside the checkout and off the network: the module
# needs nothing but the standard library and its parent module.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" GOENV=off GOPROXY=off GOWORK=off \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out-dir "$out" "$@"
