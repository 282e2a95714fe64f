#!/usr/bin/env bash
# Builds the vTPM benchmark from source and runs it with the given flags.
# Run from the repository root:
#   bash vtpmbench/run.sh --workload boot-storm --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and span dumps stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/vtpmbench" && go build -o "$out/vtpmbench" .)
exec "$out/vtpmbench" "$@"
