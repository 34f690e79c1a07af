#!/usr/bin/env bash
# Builds simbench from the checkout's sources and runs it, passing all
# arguments through:
#
#   bash simbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, temporary files,
# the binary) stays in .bench_build at the root of the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build_dir="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$build_dir/gocache" "$build_dir/tmp" "$build_dir/config"

export GOCACHE="$build_dir/gocache" GOTMPDIR="$build_dir/tmp" \
	GOPATH="$build_dir/gopath" GOMODCACHE="$build_dir/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build_dir/config" GOENV=off GOWORK=off \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local CGO_ENABLED=0

go -C "$bench_dir" build -o "$build_dir/simbench" .
exec "$build_dir/simbench" "$@"
