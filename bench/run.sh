#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload paper-matrix --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the go command's configuration
# and telemetry, temporary files, the binary, and the benchmark's own
# scratch files and profiles.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
