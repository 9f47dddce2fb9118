#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it from the
# checkout root:
#
#   bash perfbench/run.sh --workload pin-steady --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files) stays under .bench_build/ in the checkout. The build is offline
# (GOPROXY=off): the benchmark module depends only on the repository's
# own module, through a directory replace.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/perfbench" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
cd "$root"
exec "$out/perfbench/perfbench" "$@"
