#!/usr/bin/env bash
# Smoke-test the resident control-plane daemon end to end: launch surfnetd on
# an ephemeral port, drive it with a 1000-request open-loop surfload run, and
# assert the service surface (admission, shed counters on /metrics, per-tenant
# /status accounting, latency percentiles in surfload's report). Then start a
# second load and SIGTERM the daemon mid-run: /readyz must leave ready, the
# drain must complete every admitted transfer (admitted == completed + failed,
# the zero-drop contract), and the process must exit 0.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
stderr="$workdir/surfnetd.log"
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/surfnetd" ./cmd/surfnetd
go build -o "$workdir/surfload" ./cmd/surfload

"$workdir/surfnetd" -listen 127.0.0.1:0 -queue-limit 64 -epoch-max 8 \
  2>"$stderr" &
pid=$!

# The resolved ephemeral address is logged as addr=HOST:PORT on stderr.
addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's/.*observability server listening.*addr=\([0-9.:]*\).*/\1/p' "$stderr" | head -1)"
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "surfnetd exited early"; cat "$stderr"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "no listen addr logged"; cat "$stderr"; exit 1; }
echo "surfnetd at $addr"

# Resident lifecycle: the daemon reports ready once it owns network state and
# the API routes are mounted.
for _ in $(seq 1 50); do
  curl -fsS "http://$addr/readyz" 2>/dev/null | grep -qx 'ready' && break
  sleep 0.1
done
curl -fsS "http://$addr/readyz" | grep -qx 'ready' || { echo "/readyz never became ready"; exit 1; }
curl -fsS "http://$addr/v1/network" | python3 -c '
import json, sys
net = json.load(sys.stdin)
users = [n for n in net["nodes"] if n["role"] == "user"]
assert len(users) >= 2, net
assert net["fibers"], net
'

# Phase 1: a 1000-request open-loop run. The rate deliberately exceeds what
# the daemon absorbs with this queue bound: the whole run arrives in about
# 0.2 s against a 64-slot queue, far faster than any epoch rate, so admission
# control must shed. surfload exits 0 as long as nothing errors or times out.
"$workdir/surfload" -addr "$addr" -rate 5000 -requests 1000 -seed 7 \
  -timeout 120s -out "$workdir/surfload.json" \
  || { echo "surfload run failed"; cat "$stderr"; exit 1; }

python3 - "$workdir/surfload.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
[b] = [b for b in rep["benchmarks"] if b["name"] == "ServiceTransferWall"]
assert b["iterations"] >= 1, b
assert b["ns_per_op"] > 0, b
for k in ("p50-ns/op", "p90-ns/op", "p99-ns/op"):
    assert b["extra"][k] > 0, (k, b)
assert b["extra"]["p99-ns/op"] >= b["extra"]["p50-ns/op"], b
EOF

# The service metric families must be live on /metrics: queue depth gauge,
# admission and shed counters (shed strictly positive after the overload).
metrics="$workdir/metrics.txt"
curl -fsS "http://$addr/metrics" >"$metrics"
grep -q '^# TYPE surfnet_service_queue_depth gauge' "$metrics" \
  || { echo "no queue depth gauge in /metrics"; cat "$metrics"; exit 1; }
grep -q '^surfnet_service_admitted_total [1-9]' "$metrics" \
  || { echo "no admissions counted in /metrics"; cat "$metrics"; exit 1; }
grep -q '^surfnet_service_shed_total [1-9]' "$metrics" \
  || { echo "overload did not shed (or shed not counted) in /metrics"; cat "$metrics"; exit 1; }
grep -q '^surfnet_service_epochs_total [1-9]' "$metrics" \
  || { echo "no epochs counted in /metrics"; cat "$metrics"; exit 1; }

# /status must embed the service snapshot with per-tenant accounting.
curl -fsS "http://$addr/status" | python3 -c '
import json, sys
st = json.load(sys.stdin)["service"]
assert st["admitted"] >= 1, st
assert st["completed"] >= 1, st
assert st["shed"] >= 1, st
assert st["queue_depth"] >= 0, st
assert st["tenants"], st
for name, t in st["tenants"].items():
    assert t["admitted"] == t["completed"] + t["failed"] + 0, (name, t)
'

# Phase 2: SIGTERM mid-load. Arrivals are slow enough that transfers are
# still in flight when the signal lands; the daemon must flip /readyz off,
# complete every admitted transfer, and exit 0.
"$workdir/surfload" -addr "$addr" -rate 50 -requests 400 -seed 8 \
  -timeout 120s >/dev/null 2>&1 &
loadpid=$!
sleep 1
kill -TERM "$pid"

# From this point /readyz must never report ready again (503 while draining,
# connection refused once the process is gone).
for _ in $(seq 1 100); do
  out="$(curl -fsS "http://$addr/readyz" 2>/dev/null || true)"
  [ "$out" = "ready" ] && { echo "/readyz still ready after SIGTERM"; exit 1; }
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done

wait "$pid" || { echo "surfnetd exited non-zero after SIGTERM"; cat "$stderr"; exit 1; }
kill "$loadpid" 2>/dev/null || true
wait "$loadpid" 2>/dev/null || true

# The drain summary is the zero-drop contract: every admitted transfer
# reached a terminal state before exit.
drained="$(grep 'surfnetd: drained' "$stderr" | tail -1)"
[ -n "$drained" ] || { echo "no drain summary logged"; cat "$stderr"; exit 1; }
echo "$drained"
python3 - "$drained" <<'EOF'
import re, sys
line = sys.argv[1]
stats = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", line)}
assert stats["admitted"] == stats["completed"] + stats["failed"], stats
assert stats["completed"] >= 1, stats
EOF

echo "daemon smoke test passed"
