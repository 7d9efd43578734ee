#!/usr/bin/env bash
# Builds the service benchmark from the checkout it is run in and runs it
# with the given arguments (--workload, --seed, --seconds, --trace). Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 16 --trace 0
#
# The Go build cache, the binary, per-run scratch data and the traced run's
# spans all go under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --tmp "$build/tmp" --spans "$build/spans" "$@"
