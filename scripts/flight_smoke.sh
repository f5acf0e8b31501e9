#!/usr/bin/env bash
# Flight-recorder smoke: run the resident daemon with the live fault plane
# armed, drive it with a retrying surfload that samples flight traces, and
# assert the latency-attribution contract end to end: a trace fetched
# mid-chaos is a complete ordered timeline whose segments sum exactly to the
# transfer's admission-to-terminal wall time, /debug/bundle has the incident
# shape (status + metrics + faults + flights), traceview renders it, the
# segment and queue-wait HDR families are live on /metrics, and unmatched API
# paths answer with the JSON error envelope.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
stderr="$workdir/surfnetd.log"
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/surfnetd" ./cmd/surfnetd
go build -o "$workdir/surfload" ./cmd/surfload
go build -o "$workdir/traceview" ./cmd/traceview

# Chaos armed: the 2x resilience scenario plus a scripted node outage, live
# from the first fault tick. An attempt that runs under an outage records
# fault_coincident, and a retry after it charges its wait to fault_stall.
"$workdir/surfnetd" -listen 127.0.0.1:0 -queue-limit 64 -epoch-max 8 \
  -faults 2 -fault-script '0:node:1:2000' -fault-tick 25ms \
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
echo "surfnetd (flight smoke) at $addr"

for _ in $(seq 1 50); do
  curl -fsS "http://$addr/readyz" 2>/dev/null | grep -qx 'ready' && break
  sleep 0.1
done
curl -fsS "http://$addr/readyz" | grep -qx 'ready' || { echo "/readyz never became ready"; exit 1; }

# Retrying load with trace sampling: the driver pulls the 5 slowest flights
# and folds their attribution into the benchjson extras.
"$workdir/surfload" -addr "$addr" -rate 300 -requests 400 -seed 7 \
  -retry -retry-max 5 -deadline 60s -retry-budget 3 -sample-traces 5 \
  -timeout 120s -out "$workdir/surfload.json" \
  || { echo "surfload flight run failed"; cat "$stderr"; exit 1; }

python3 - "$workdir/surfload.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
[b] = [b for b in rep["benchmarks"] if b["name"] == "ServiceTransferWall"]
extra = b["extra"]
assert extra.get("traces-sampled/op", 0) >= 1, extra
segs = [k for k in extra if k.startswith("seg-")]
assert segs, extra
assert any(extra[k] > 0 for k in segs), extra
EOF

# The incident bundle, fetched mid-chaos, must carry all four planes, and
# every retained flight must satisfy the attribution contract: gap-free seqs,
# monotone stamps, segments summing exactly to the flight's total wall time.
bundle="$workdir/bundle.json"
curl -fsS "http://$addr/debug/bundle" >"$bundle"
trace_id="$(python3 - "$bundle" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("status", "metrics", "faults", "flights"):
    assert key in doc, f"bundle missing {key!r}"
assert doc["faults"]["enabled"], doc["faults"]
assert doc["metrics"]["histograms"], "bundle metrics empty"
flights = doc["flights"]
assert flights, "no retained flights in bundle"
kinds = {"admitted", "queue_enter", "queue_exit", "epoch_assigned", "planned",
         "fault_coincident", "executed", "decode_verdict", "retry_scheduled",
         "terminal"}
for tr in flights:
    evs = tr["events"]
    assert evs[0]["kind"] == "admitted", evs[0]
    assert evs[-1]["kind"] == "terminal", evs[-1]
    for i, ev in enumerate(evs):
        assert ev["kind"] in kinds, ev
        assert ev["seq"] == i, (tr["id"], i, ev)
        if i:
            assert ev["wall_ns"] >= evs[i - 1]["wall_ns"], (tr["id"], i)
    total = sum(s["wall_ns"] for s in tr["segments"])
    assert total == tr["total_wall_ns"], (tr["id"], total, tr["total_wall_ns"])
print(flights[0]["id"])
EOF
)"
[ -n "$trace_id" ] || { echo "no flight ID extracted from bundle"; exit 1; }

# The same flight must be fetchable as a standalone trace, identical contract.
curl -fsS "http://$addr/v1/transfers/$trace_id/trace" | python3 -c '
import json, sys
tr = json.load(sys.stdin)
total = sum(s["wall_ns"] for s in tr["segments"])
assert total == tr["total_wall_ns"], (total, tr["total_wall_ns"])
assert abs(tr["total_seconds"] - tr["total_wall_ns"] / 1e9) < 1e-12, tr
assert tr["events"][-1]["kind"] == "terminal", tr["events"][-1]
'

# traceview renders both the bundle (with rollup) and a single trace.
"$workdir/traceview" "$bundle" >"$workdir/traceview.txt"
grep -q "flight $trace_id" "$workdir/traceview.txt" \
  && grep -q "attribution" "$workdir/traceview.txt" \
  || { echo "traceview rendering incomplete"; cat "$workdir/traceview.txt"; exit 1; }
# Render to a file first: grep -q exits at its first match, and under
# pipefail the viewer's write after that (SIGPIPE) would fail the check.
curl -fsS "http://$addr/v1/transfers/$trace_id/trace" | "$workdir/traceview" >"$workdir/trace.txt"
grep -q "flight $trace_id" "$workdir/trace.txt" \
  || { echo "traceview failed on a bare trace"; cat "$workdir/trace.txt"; exit 1; }

# Unknown IDs and unmatched /v1/ paths answer with the JSON error envelope.
for path in "/v1/transfers/t-404/trace" "/v1/transfers/t-404" "/v1/nonexistent"; do
  body="$workdir/err.json"
  code="$(curl -s -o "$body" -w '%{http_code}' "http://$addr$path")"
  [ "$code" = "404" ] || { echo "GET $path = HTTP $code, want 404"; exit 1; }
  python3 -c 'import json, sys; assert json.load(open(sys.argv[1]))["error"]' "$body" \
    || { echo "GET $path: body is not the JSON error envelope"; cat "$body"; exit 1; }
done

# The attribution and queue-pressure metric families must be live.
metrics="$workdir/metrics.txt"
curl -fsS "http://$addr/metrics" >"$metrics"
for family in \
  surfnet_service_segment_execute_wall_seconds_count \
  surfnet_service_segment_plan_wall_seconds_count \
  surfnet_service_segment_queue_wait_wall_seconds_count \
  surfnet_service_queue_wait_wall_seconds_count; do
  grep -q "^$family [1-9]" "$metrics" \
    || { echo "$family missing or zero in /metrics"; grep surfnet_service_ "$metrics" || true; exit 1; }
done
grep -q '^surfnet_service_queue_depth ' "$metrics" \
  || { echo "queue depth gauge missing from /metrics"; exit 1; }
grep -q '^surfnet_service_queue_depth_sampled_count [1-9]' "$metrics" \
  || { echo "queue depth sampling histogram empty"; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "surfnetd exited non-zero after SIGTERM"; cat "$stderr"; exit 1; }

echo "flight smoke test passed"
