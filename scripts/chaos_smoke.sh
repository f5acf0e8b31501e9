#!/usr/bin/env bash
# Chaos smoke: run the resident daemon with the live fault plane armed — the
# resilience scenario at 4x intensity plus a scripted node outage landing
# immediately — and drive it with a retrying surfload while faults churn
# underneath. Asserts the robustness contract end to end: fault events and
# fault-triggered re-plans are visible on /metrics and /status, admission
# retries are honored, and a SIGTERM mid-chaos still satisfies the zero-drop
# drain (admitted == completed + failed) with a clean exit.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
stderr="$workdir/surfnetd.log"
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/surfnetd" ./cmd/surfnetd
go build -o "$workdir/surfload" ./cmd/surfload

# A fast fault tick and a low replan threshold so the chaos plumbing is
# exercised within seconds: the script cuts node 1 at relative slot 0 for
# 2000 slots, and the stochastic 4x resilience scenario churns on top.
"$workdir/surfnetd" -listen 127.0.0.1:0 -queue-limit 64 -epoch-max 8 \
  -faults 4 -fault-script '0:node:1:2000' -fault-tick 25ms \
  -fault-replan-threshold 2 \
  2>"$stderr" &
pid=$!

addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's/.*observability server listening.*addr=\([0-9.:]*\).*/\1/p' "$stderr" | head -1)"
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "surfnetd exited early"; cat "$stderr"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "no listen addr logged"; cat "$stderr"; exit 1; }
echo "surfnetd (chaos) at $addr"

for _ in $(seq 1 50); do
  curl -fsS "http://$addr/readyz" 2>/dev/null | grep -qx 'ready' && break
  sleep 0.1
done
curl -fsS "http://$addr/readyz" | grep -qx 'ready' || { echo "/readyz never became ready"; exit 1; }

# The armed scenario must be visible on the admin endpoint before any load.
curl -fsS "http://$addr/v1/faults" | python3 -c '
import json, sys
info = json.load(sys.stdin)
assert info["state"]["enabled"], info
assert info["profile"]["script"] == "0:node:1:2000", info
assert info["profile"]["fiber_crash_prob"] > 0, info
'

# A hot-swap through the admin endpoint must validate: an out-of-range target
# is a 400 and must not disturb the armed scenario.
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/faults" \
  -d '{"script":"0:fiber:100000:10"}')"
[ "$code" = "400" ] || { echo "invalid fault profile accepted (HTTP $code)"; exit 1; }
curl -fsS "http://$addr/v1/faults" | python3 -c '
import json, sys
assert json.load(sys.stdin)["state"]["enabled"], "rejected profile disarmed the plane"
'

# Open-loop load with client-side retry armed: 429s are retried with
# Retry-After-seeded backoff, and each transfer carries a deadline and a
# server-side retry budget so fault-hit epochs re-queue instead of failing.
"$workdir/surfload" -addr "$addr" -rate 300 -requests 600 -seed 7 \
  -retry -retry-max 5 -deadline 60s -retry-budget 3 \
  -timeout 120s -out "$workdir/surfload.json" \
  || { echo "surfload chaos run failed"; cat "$stderr"; exit 1; }

python3 - "$workdir/surfload.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
[b] = [b for b in rep["benchmarks"] if b["name"] == "ServiceTransferWall"]
assert b["iterations"] >= 1, b
assert "retries/op" in b["extra"], b["extra"]
EOF

# Fault-plane metric families must be live and nonzero: the scripted outage
# alone guarantees at least one fault event, and the low threshold under 4x
# churn guarantees fault-triggered re-plans.
metrics="$workdir/metrics.txt"
curl -fsS "http://$addr/metrics" >"$metrics"
grep -q '^surfnet_fault_events_total [1-9]' "$metrics" \
  || { echo "no fault events counted in /metrics"; cat "$metrics"; exit 1; }
grep -q '^surfnet_service_fault_invalidations_total [1-9]' "$metrics" \
  || { echo "no fault invalidations counted in /metrics"; cat "$metrics"; exit 1; }
grep -q '^surfnet_service_replans_fault_triggered_total [1-9]' "$metrics" \
  || { echo "no fault-triggered replans counted in /metrics"; cat "$metrics"; exit 1; }

# /status must carry the fault-plane snapshot and the replan split.
curl -fsS "http://$addr/status" | python3 -c '
import json, sys
st = json.load(sys.stdin)["service"]
assert st["faults"]["enabled"], st
assert st["faults"]["events"] >= 1, st
assert st["replans_fault_triggered"] >= 1, st
assert st["admitted"] >= 1, st
for name, t in st.get("tenants", {}).items():
    assert t["admitted"] == t["completed"] + t["failed"], (name, t)
'

# SIGTERM mid-chaos: start a second load, kill the daemon, and require the
# zero-drop drain while faults are still stepping.
"$workdir/surfload" -addr "$addr" -rate 50 -requests 400 -seed 8 \
  -retry -retry-max 3 -retry-budget 2 \
  -timeout 120s >/dev/null 2>&1 &
loadpid=$!
sleep 1
kill -TERM "$pid"

wait "$pid" || { echo "surfnetd exited non-zero after SIGTERM"; cat "$stderr"; exit 1; }
kill "$loadpid" 2>/dev/null || true
wait "$loadpid" 2>/dev/null || true

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

echo "chaos smoke test passed"
