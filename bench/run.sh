#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through:
#
#   bash bench/run.sh --workload read-mix --seed 1 --seconds 12 --trace 0
#
# The build cache, the binary and the run's scratch files all live under
# .bench_build/ in the working directory, and the toolchain never goes
# to the network (the module has no dependencies outside this
# repository).
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd bench && go build -o "$out/rpeer-bench" .) >&2
exec "$out/rpeer-bench" "$@"
