#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root: bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache and the Go tool's own state live in
# .bench_build (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --build-dir "$out" "$@"
