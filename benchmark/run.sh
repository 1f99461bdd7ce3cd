#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Everything the build writes, Go's build cache included,
# stays under .bench_build at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache"
go build -C "$root/benchmark" -o "$root/.bench_build/benchmark" .
cd "$root"
exec "$root/.bench_build/benchmark" "$@"
