#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload ur8x8 --seed 42 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, the go command's config and telemetry
# files, and traces stay under .bench_build (or $CARGO_TARGET_DIR when set)
# inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
