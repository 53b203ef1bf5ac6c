#!/usr/bin/env bash
# Builds the benchmark (once per checkout, into .bench_build/ at the checkout
# root, with the Go build cache kept there too so nothing is written outside
# the checkout) and runs it with the arguments given. This is the command
# BENCHMARK.json names; run it from the checkout root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
bin="$build/cprbenchmark"

# XDG_CONFIG_HOME: the go command keeps its telemetry counters and its env
# file under the user's configuration directory.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off

# Rebuild when the binary is missing or any Go source or go.mod of the
# checkout is newer than it.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	mkdir -p "$build"
	go build -C "$here" -o "$bin" .
fi

cd "$root"
exec "$bin" "$@"
