#!/usr/bin/env bash
# Builds the benchmark and the programs it drives (slugger, serve,
# fedserve) from the source tree in the current directory, then runs
# the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh compare parent-runs.txt change-runs.txt
#
# Everything it writes, Go's build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off

go -C perfbench build -o "$out/bin/perfbench" .
go build -o "$out/bin/" ./cmd/slugger ./cmd/serve ./cmd/fedserve
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
