#!/usr/bin/env bash
# Builds and runs the repository benchmark from the repository root:
#
#   bash bench/run.sh --workload eval-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build writes — the Go build cache, temporary files,
# the benchmark binary and the CLIs it builds — stays under
# .bench_build/ in the checkout, and the toolchain never goes to the
# network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C bench build -o "$out/helixbench" .
exec "$out/helixbench" -root "$root" "$@"
