#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload coexist-des --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache, the compiler's temporary files, Go's configuration and local
# telemetry counters, and span dumps all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. The binary replaces this
# shell, so the workload's peak RSS is its own process's.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
