#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files go under .bench_build/
# at the root of the checkout; nothing is read or written outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-buildvcs=false
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
	export PERFBENCH_COMMIT
fi

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
