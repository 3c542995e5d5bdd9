#!/usr/bin/env bash
# Builds galsim's benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sim-long --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write stays in .bench_build/ there: the binary, the Go build cache,
# temporary files, the CPU profile and the fleet workload's journal.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/campaign || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a galsim checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -scratch "$out" "$@"
