#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it,
# passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload dash --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -spans "$out" "$@"
