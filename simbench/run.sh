#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout's sources and runs it.
# Run from the repository root; arguments go to the benchmark:
#
#   bash simbench/run.sh --workload dyn-mixed --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's config dir) goes
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/simbench"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$out/simbench/simbench" .) >&2
exec "$out/simbench/simbench" "$@"
