#!/usr/bin/env bash
# Builds hyperdomd and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload lookup-d4 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/hyperdomd ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/hyperdomd here)" >&2
	exit 1
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
# The go command's caches, module path and telemetry stay under $out; the
# toolchain is the installed one and nothing is fetched.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# With telemetry on, the go command forks a detached upload process that
# outlives this script; "go telemetry off" itself starts none.
go telemetry off
go build -o "$out/hyperdomd" ./cmd/hyperdomd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -hyperdomd "$out/hyperdomd" -workdir "$out" "$@"
