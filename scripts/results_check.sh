#!/usr/bin/env bash
# Regenerate the committed result tables into a temporary directory and fail
# when any of them differs from the committed file, printing the diff. This
# is the "same outputs" check: a change that moves a table must regenerate
# the file and give the reason in EXPERIMENTS.md.
#
#   results_fig67.txt       surfnetsim -fig all -trials 12 -requests 6
#   results_resilience.txt  faultsim
#   results_ablations.txt   ablations -study all -trials 20000
#   results_fig8.txt        decoderbench -trials 20000 -distances 9,11,13,15
#
# The "decode wall time per invocation" block of results_fig8.txt is wall
# clock, so it is cut from both sides and only the rate tables are compared.
# The working tree is never written to. About two minutes on 2 vCPUs, most of
# it in the Fig 8 sweep.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/" ./cmd/surfnetsim ./cmd/faultsim ./cmd/ablations ./cmd/decoderbench

status=0

# regen FILE CMD...: run CMD into $workdir/FILE, stderr to a log shown on
# failure.
regen() {
  local file=$1
  shift
  echo "results-check: $file <- $*"
  if ! "$@" >"$workdir/$file" 2>"$workdir/$file.log"; then
    echo "results-check: $* failed" >&2
    cat "$workdir/$file.log" >&2
    exit 1
  fi
}

# compare FILE WANT GOT: diff the committed side of FILE against its
# regeneration.
compare() {
  if ! diff -u --label "$1 (committed)" --label "$1 (regenerated)" "$2" "$3"; then
    echo "results-check: $1 differs from its regeneration" >&2
    status=1
  fi
}

regen results_fig67.txt "$workdir/surfnetsim" -fig all -trials 12 -requests 6
compare results_fig67.txt results_fig67.txt "$workdir/results_fig67.txt"

regen results_resilience.txt "$workdir/faultsim"
compare results_resilience.txt results_resilience.txt "$workdir/results_resilience.txt"

regen results_ablations.txt "$workdir/ablations" -study all -trials 20000
compare results_ablations.txt results_ablations.txt "$workdir/results_ablations.txt"

regen results_fig8.txt "$workdir/decoderbench" -trials 20000 -distances 9,11,13,15
rates() { sed '/^decode wall time per invocation:/,$d' "$1"; }
rates results_fig8.txt >"$workdir/fig8_committed_rates.txt"
rates "$workdir/results_fig8.txt" >"$workdir/fig8_rates.txt"
compare results_fig8.txt "$workdir/fig8_committed_rates.txt" "$workdir/fig8_rates.txt"

if [ "$status" -ne 0 ]; then
  echo "results check failed" >&2
  exit 1
fi
echo "results check passed"
