#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout:  bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache and temp dir, the go command's own config and
# telemetry directory, the binary, the node's data directory and the trace
# file.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -C benchmark -o "$build/zkdet-benchmark" .
exec "$build/zkdet-benchmark" "$@"
