#!/usr/bin/env bash
# Builds the sealbench benchmark from this checkout and runs it.
#
#   bash sealbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, traced-run span files) goes under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

go build -C "$root/sealbench" -o "$out/sealbench" .
exec "$out/sealbench" "$@"
