#!/usr/bin/env bash
# Builds the layered benchmark from the sources in this checkout and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact, cache and
# temporary file stays under .bench_build/ in that directory.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" \
	GOMODCACHE="$PWD/$out/gopath/pkg/mod" GOTMPDIR="$PWD/$out/tmp" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOENV=off GOTOOLCHAIN=local \
	GOWORK=off GOPROXY=off GOFLAGS=
go -C perfbench build -o "../$out/perfbench" .
exec "$out/perfbench" "$@"
