#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments. Run it from the root of the source tree:
#
#   bash perfbench/run.sh --workload fig6-flow --seed 1 --seconds 5 --trace 0
#
# Build outputs, the Go build cache included, stay under the directory
# named by CARGO_TARGET_DIR (default .bench_build), inside the tree.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
# The go command keeps its telemetry counters under the user config
# directory; this keeps them in the tree too.
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
