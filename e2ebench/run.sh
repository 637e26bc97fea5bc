#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload paper_depth1000 --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache
# and the benchmark's scratch files stay under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" -workdir "$out/work" -root "$root" "$@"
