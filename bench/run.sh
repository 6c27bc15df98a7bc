#!/usr/bin/env bash
# Builds bristle-loadgen from this checkout's sources into .bench_build/ at
# the checkout's root and runs it with the given arguments. Everything the
# build writes — Go's build cache, its temporary files, its telemetry
# counters — stays under .bench_build/; results go to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/bristle-loadgen" .
exec "$build/bristle-loadgen" -out "$here/out" "$@"
