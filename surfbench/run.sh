#!/usr/bin/env bash
# Builds the SurfNet benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash surfbench/run.sh --workload epoch --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache, the go command's own config and telemetry
# files, and trace files stay under .bench_build (or $CARGO_TARGET_DIR when
# set), inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/surfbench" && go build -o "$out/surfbench" .)
exec "$out/surfbench" -trace-dir "$out" "$@"
