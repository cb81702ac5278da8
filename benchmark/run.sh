#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload serve-micro --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, traces and request logs all stay in
# .bench_build at the repository root. Without the repository's sources
# beside it the build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/benchmark" .) >&2
cd "$root"
exec "$out/benchmark" "$@"
