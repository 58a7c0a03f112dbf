#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload clk-chain-e3k --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the go command's own state stay
# under .bench_build/ in the current directory. Without the repository
# around it (no ../go.mod) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
