#!/usr/bin/env bash
# Builds the ageguard benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every scratch file of a run live
# under .bench_build/ at the repository root, so nothing is written
# outside the checkout and no network access is attempted.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of an ageguard checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --work "$build" "$@"
