#!/usr/bin/env bash
# Smoke-test the live observability plane: launch surfnetsim with -listen on
# an ephemeral port and a workload long enough to scrape mid-run, then assert
# /metrics serves well-formed Prometheus exposition, /healthz answers ok, and
# /status reports live sweep progress. The per-decode wall-time histogram
# (decoder.surfnet.decode_seconds) must appear in /metrics mid-run.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
stderr="$workdir/stderr.log"
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/surfnetsim" ./cmd/surfnetsim

"$workdir/surfnetsim" -fig 6a,6b1,7 -trials 40 -requests 6 \
  -listen 127.0.0.1:0 >"$workdir/stdout.log" 2>"$stderr" &
pid=$!

# The resolved ephemeral address is logged as addr=HOST:PORT on stderr.
addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's/.*observability server listening.*addr=\([0-9.:]*\).*/\1/p' "$stderr" | head -1)"
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "surfnetsim exited early"; cat "$stderr"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] && echo "obs server at $addr" || { echo "no listen addr logged"; cat "$stderr"; exit 1; }

curl -fsS "http://$addr/healthz" | grep -qx 'ok' || { echo "/healthz not ok"; exit 1; }
curl -fsS "http://$addr/readyz"  | grep -qx 'ready' || { echo "/readyz not ready"; exit 1; }

# /metrics must be well-formed Prometheus text exposition: every TYPE'd
# metric prefixed with surfnet_, and every sample line NAME VALUE (with
# optional {labels}).
metrics="$workdir/metrics.txt"
for _ in $(seq 1 100); do
  curl -fsS "http://$addr/metrics" >"$metrics"
  [ -s "$metrics" ] && grep -q '^surfnet_' "$metrics" && break
  kill -0 "$pid" 2>/dev/null || { echo "run ended before metrics appeared"; break; }
  sleep 0.1
done
grep -q '^# TYPE surfnet_[a-z0-9_]* \(counter\|gauge\|histogram\)$' "$metrics" \
  || { echo "no TYPE lines in /metrics"; cat "$metrics"; exit 1; }
bad="$(grep -v '^#' "$metrics" | grep -cv '^surfnet_[A-Za-z0-9_]*\({[^}]*}\)\? -\?[0-9+.eEInfNa-]*$' || true)"
[ "$bad" -eq 0 ] || { echo "$bad malformed sample lines in /metrics"; cat "$metrics"; exit 1; }
grep -q '_total ' "$metrics" || { echo "no counters in /metrics"; cat "$metrics"; exit 1; }

# Wall time is measured by registry histograms, not spans: the SurfNet
# decoder's per-decode wall-time histogram must count decodes once the first
# transfers complete, while the run is still going.
for _ in $(seq 1 200); do
  grep -q '^surfnet_decoder_surfnet_decode_seconds_count [1-9]' "$metrics" && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
  curl -fsS "http://$addr/metrics" >"$metrics" || true
done
grep -q '^surfnet_decoder_surfnet_decode_seconds_count [1-9]' "$metrics" \
  || { echo "no decode wall-time histogram in /metrics"; cat "$metrics"; exit 1; }

# /status must be JSON with live cell progress, and no SLO budget block.
status="$workdir/status.json"
curl -fsS "http://$addr/status" >"$status"
python3 - "$status" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
assert st["ready"] is True, st
assert st["cells_started"] >= 1, st
assert st["trials_total"] >= 1, st
assert isinstance(st.get("cells", []), list), st
assert "budget" not in st, st
EOF

# pprof must be fetchable during the run (if it is still running).
if kill -0 "$pid" 2>/dev/null; then
  curl -fsS "http://$addr/debug/pprof/cmdline" >/dev/null || { echo "pprof unreachable"; exit 1; }
fi

wait "$pid" || { echo "surfnetsim failed"; cat "$stderr"; exit 1; }
echo "obs smoke test passed"
