#!/usr/bin/env bash
# Builds the ESD benchmark from source and runs one workload.
#
#   bash esdbench/run.sh --workload ls4-seq --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, scratch directories, span files) goes under
# .bench_build in that root, or under $CARGO_TARGET_DIR when it is set.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/esdbench" && go build -o "$out/esdbench" .) >&2
exec "$out/esdbench" --workdir "$out" "$@"
