#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload population --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, the binary and the nodes' data
# directories. The build needs the repository's own go.mod next to
# perfbench/, so outside a full checkout it fails and the script exits
# non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off TMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/work" "$@"
