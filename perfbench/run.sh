#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload eval-full --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, spans and CPU profiles all live under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
PERFBENCH_LAUNCH_NS=$(date +%s%N) exec "$out/perfbench" "$@"
