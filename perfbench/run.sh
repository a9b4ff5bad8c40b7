#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run
# it from the root of a checkout, e.g.
#
#   bash perfbench/run.sh --workload revise --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, scratch files) stays
# under .bench_build/ in the checkout. The build needs no network: the
# benchmark module depends only on the repository module beside it.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
