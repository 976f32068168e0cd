#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload embedded-oltp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, sockets, span dumps) goes under $CARGO_TARGET_DIR, or
# .bench_build when unset, relative to the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
