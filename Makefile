GO ?= go
# Per-benchmark time budget for bench-json; the bench-smoke CI job overrides
# this with a short value to keep the job fast while exercising the full
# pipeline.
BENCHTIME ?= 1s

.PHONY: build test race vet fmt-check check bench-json bench-smoke bench-diff bench-save obs-smoke daemon-smoke chaos-smoke flight-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail when any tracked Go file is not gofmt-formatted; lists the offenders.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The standard pre-commit check.
check: fmt-check vet race

# Machine-readable benchmark trajectory: run the decoder and sim benchmarks
# and emit BENCH_decoder.json (ns/op, B/op, allocs/op per benchmark).
# MWPMDecode covers the dense-vs-scratch sparse decode comparison;
# DecodeWallLatency adds the wall-latency percentile families (p50/p99/p999);
# BatchSample/BatchDecode ratchet the packed 64-lane engine's ns/trial against
# the scalar pipeline.
bench-json:
	$(GO) test -run '^$$' -bench 'SurfNetDecoder|UnionFindDecoder|MWPMDecoder|MWPMDecode/|DecodeFrameAllocs|RunOverhead|DecodeWallLatency|BatchSample|BatchDecode' \
		-benchmem -benchtime $(BENCHTIME) ./... | $(GO) run ./cmd/benchjson -out BENCH_decoder.json

# Fast end-to-end check that the benchmark trajectory stays machine-readable:
# regenerate BENCH_decoder.json on a tiny benchtime and fail if any expected
# benchmark family is missing from it.
bench-smoke:
	./scripts/bench_smoke.sh

# Perf-regression ledger gate: regenerate the benchmark snapshot and diff it
# against the committed BENCH_decoder.json with cmd/benchdiff. Tolerances are
# tunable (BENCHDIFF_TOL for ns/op, BENCHDIFF_BYTES_TOL, BENCHDIFF_ALLOC_TOL)
# — CI widens the ns/op band because its hardware differs from the machine
# that wrote the committed ledger, while allocs/op stays strict everywhere.
bench-diff:
	./scripts/bench_diff.sh

# Regenerate the committed benchdiff baseline (BENCH_decoder.json), for the
# commit that intentionally moves the perf ledger. Refuses on a dirty working
# tree so a baseline refresh can never silently absorb unrelated uncommitted
# changes into the ledger commit. Service latency is benchmarked by surfbench
# (bash surfbench/run.sh --workload epoch), not by a ledger here.
bench-save:
	@if [ -n "$$(git status --porcelain)" ]; then \
		echo "bench-save: working tree is dirty; commit or stash first" >&2; \
		git status --short >&2; \
		exit 1; \
	fi
	$(MAKE) bench-json

# Launch surfnetsim with the obs server on a tiny figure and curl its
# endpoints: well-formed /metrics with the per-decode wall-time histogram
# counting mid-run, live /status progress, pprof (same script CI runs).
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end resident-daemon check: surfnetd on an ephemeral port, a
# 1000-request surfload, service metrics on /metrics and /status, then a
# mid-load SIGTERM asserting the zero-drop drain (same script CI runs).
daemon-smoke:
	./scripts/daemon_smoke.sh

# Chaos variant of the daemon smoke: the live fault plane is armed with the
# 4x resilience scenario plus a scripted outage, surfload retries against it,
# and the zero-drop drain is asserted mid-chaos (same script CI runs).
chaos-smoke:
	./scripts/chaos_smoke.sh

# Flight-recorder smoke: surfnetd under chaos with trace sampling, a trace
# fetched mid-chaos asserting the segment-attribution sum contract, the
# /debug/bundle shape, traceview rendering, and the segment HDR families on
# /metrics (same script CI runs).
flight-smoke:
	./scripts/flight_smoke.sh
