#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload gnp40-corrupt --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache and temporary
# files, Go's own config and telemetry files) stays under .bench_build in
# the current directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go build -C "$here" -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
