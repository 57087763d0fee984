#!/usr/bin/env bash
# Builds mcperf and runs it with the given arguments, from the root of a
# checkout:
#
#   bash cmd/mcperf/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binaries and everything a run writes stay under
# .bench_build/ in the working directory; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C "$root/cmd/mcperf" build -o "$out/bin/mcperf" .
exec "$out/bin/mcperf" -root "$root" -out "$out/mcperf" "$@"
