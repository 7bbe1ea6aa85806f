#!/usr/bin/env bash
# Builds the Symphony benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload rag-fork --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary and everything the build
# writes (Go's build cache, module path, temporary files, and its user
# config with the telemetry counters) live under .bench_build/ in the
# current directory, so the run writes nothing outside the checkout. The build needs the repository's
# own packages (../internal); without them it fails and the script exits
# nonzero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
