#!/usr/bin/env bash
# Builds hippobench from the sources of the checkout this script sits in
# and runs it with the given flags, e.g.
#
#   bash cmd/hippobench/run.sh -seed 1 -out bench-out
#   bash cmd/hippobench/run.sh --workload crash-corpus --seed 3 --seconds 10 --trace 0
#
# The Go build cache, module cache and the binary stay under .bench_build/
# at the checkout's root; nothing is fetched from the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
go -C "$root/cmd/hippobench" build -o "$build/hippobench" .
exec "$build/hippobench" "$@"
