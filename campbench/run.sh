#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs one workload.
#
#   bash campbench/run.sh --workload grid|deep|durable --seed N --seconds S --trace 0|1
#
# Run from the repository root. The Go build cache, temporary files, the
# go command's own config and telemetry, and the binary live under
# .bench_build/ in the working directory, so the benchmark writes nothing
# outside the checkout. The first run in a fresh checkout compiles the
# standard library into that cache.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/campbench" && go build -o "$build/campbench" .) >&2
exec "$build/campbench" -dir "$build" "$@"
