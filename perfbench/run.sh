#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with every argument passed through. Run from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload watdiv-mix --seed 1 --seconds 20 --trace 0
#
# The binary, the traced runs' span files and everything the Go tool
# writes (build cache, temporary files, configuration and telemetry)
# go to $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
