#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments are passed to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload sweep_default --seed 1 --seconds 10 --trace 0
#
# Every build and scratch file stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache and
# temporaries, module cache, toolchain config and the farm's checkpoint
# logs. The build never touches the network.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/gotmp
export XDG_CONFIG_HOME=$build/config
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/tmp" "$@"
