#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash benchmark/run.sh --workload lattice-deep --seed 7 --seconds 21 --trace 0
#
# Build outputs, the Go build cache and Go's temporary files all stay under
# .bench_build/ at the checkout root, so nothing is written outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/ccs-benchmark" .)
exec "$out/ccs-benchmark" "$@"
