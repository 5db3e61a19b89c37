#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cba --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, binary) and everything the
# benchmark writes (checkpoints, spans, run records) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
