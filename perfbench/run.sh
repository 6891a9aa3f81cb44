#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload mesh-medium --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$bench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
