#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Build cache and temporary
# files stay inside the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
go build -C "$here" -o "$build/graphbench" .
exec "$build/graphbench" "$@"
