#!/usr/bin/env bash
# Builds the benchmark and the firmserve binary from this checkout's source
# into .bench_build/, then runs one workload. Run from the repository root:
#
#   bash firmbench2/run.sh --workload crawl --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (its default, "local"), the go command forks a detached
# sidecar that outlives it; turning it off keeps go from starting one.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/firmserve" ./cmd/firmserve
go -C firmbench2 build -o "$out/firmbench2" .
exec "$out/firmbench2" -firmserve "$out/firmserve" -golden testdata/golden -work "$out/work" "$@"
