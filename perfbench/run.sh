#!/usr/bin/env bash
# Builds icilk-serve and the benchmark from this checkout, then makes one
# benchmark run. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, Go's build cache included.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/icilk-serve" ./cmd/icilk-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/icilk-serve" -out "$out" "$@"
