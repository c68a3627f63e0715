#!/usr/bin/env bash
# Builds the served-job benchmark from the checkout's sources and runs it.
# Run it from the repository root; every argument is passed to the binary:
#
#   bash servebench/run.sh --workload set-fast --seed 1 --seconds 40 --trace 0
#
# The build and the run write only under $CARGO_TARGET_DIR (default
# .bench_build): the Go build cache, the binary and the service stores.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR"

(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -work "$out" "$@"
