package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"surfnet/internal/service"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{42}); got != 42 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestClientAccounting(t *testing.T) {
	cs := clientStats{posts: 10, refused: 1}
	for _, st := range []service.TransferStatus{
		{State: service.StateCompleted, Messages: 2, AcceptedCodes: 2, DeliveredCodes: 2, SuccessCodes: 2},
		{State: service.StateCompleted, Messages: 2, AcceptedCodes: 1, DeliveredCodes: 1, SuccessCodes: 1},
		{State: service.StateFailed, FailureClass: service.FailDecode, Messages: 1, AcceptedCodes: 1, DeliveredCodes: 1},
		{State: service.StateFailed, FailureClass: service.FailNoPath, Messages: 2},
	} {
		cs.observe(st)
	}
	if got := cs.failedShare(); got != 0.3 {
		t.Errorf("failedShare = %v, want 0.3 (1 refused + 2 failed transfers of 10 POSTs)", got)
	}
	if got := cs.tally(); got != (tally{attempted: 10, failed: 1}) {
		t.Errorf("tally = %+v, want 10 attempted, 1 failed (the refused POST; failed transfers are outcomes)", got)
	}
	if got := cs.fidelity(); got != 3.0/7 {
		t.Errorf("fidelity = %v, want 3/7 (codes decoded of codes requested)", got)
	}
	if got := (clientStats{}).failedShare(); got != 0 {
		t.Errorf("failedShare with nothing attempted = %v, want 0", got)
	}
}

func TestPhaseCostPerOp(t *testing.T) {
	t0 := time.Unix(100, 0)
	a := usage{wall: t0, cpuNs: 1_000_000, totalAlloc: 4_000}
	b := usage{wall: t0.Add(2 * time.Second), cpuNs: 41_000_000, totalAlloc: 84_000}
	c := costBetween(a, b)
	if c.seconds != 2 {
		t.Errorf("seconds = %v, want 2", c.seconds)
	}
	if got := c.cpuMsPerOp(8); got != 5 {
		t.Errorf("cpuMsPerOp = %v, want 5 (40 ms over 8 ops)", got)
	}
	if got := c.allocKBPerOp(8); got != 10 {
		t.Errorf("allocKBPerOp = %v, want 10 (80 KB over 8 ops)", got)
	}
	if got := c.cpuMsPerOp(0); got != 0 {
		t.Errorf("cpuMsPerOp with no ops = %v, want 0", got)
	}
}

var allocSink []byte

func TestReadUsageSeesWork(t *testing.T) {
	before := readUsage()
	allocSink = make([]byte, 1<<20)
	hostRefMs()
	c := costBetween(before, readUsage())
	if c.allocBytes < 1<<20 {
		t.Errorf("allocation delta %d B misses a 1 MiB allocation", c.allocBytes)
	}
	if c.cpuNs <= 0 || c.seconds <= 0 {
		t.Errorf("CPU delta %d ns, wall %v s after a busy loop", c.cpuNs, c.seconds)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !validName(d.name) || !validUnit(d.unit) {
				t.Errorf("invalid metric %q unit %q", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/y", "ünï", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"p50_ms", "decoder.union-find.decode_us.d25", "9lives", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", "m s", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

func TestBuildResult(t *testing.T) {
	o := newOutcome()
	o.tally = tally{attempted: 3}
	for _, d := range endToEnd[1:] {
		o.set(d.name, 1)
	}
	if _, err := buildResult(o, endToEnd, true); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	o.set(endToEnd[0].name, math.NaN())
	if _, err := buildResult(o, endToEnd, true); err == nil {
		t.Error("a NaN metric was accepted")
	}
	o.set(endToEnd[0].name, 0.5)
	r, err := buildResult(o, endToEnd, true)
	if err != nil || len(r.Metrics) != len(endToEnd) || !r.Correct {
		t.Fatalf("buildResult = %+v, %v", r, err)
	}
	r, err = buildResult(o, perLayer, false)
	if err != nil || r.Metrics["lp.solve_ms"].Value != 0 || r.Metrics["lp.solve_ms"].Unit != "ms" {
		t.Errorf("unexercised per-layer metric = %+v, %v; want 0 ms", r.Metrics["lp.solve_ms"], err)
	}
	o.check("broken", false, "")
	if r, _ := buildResult(o, endToEnd, true); r.Correct {
		t.Error("a failed check left the result correct")
	}
	if _, err := buildResult(newOutcome(), perLayer, false); err == nil {
		t.Error("a result with no attempted ops was accepted")
	}
}

func TestSelfSeconds(t *testing.T) {
	tr := newTracer()
	p := tr.begin("parent", -1, 1)
	c1 := tr.begin("child", p, 1)
	tr.begin("grandchild", c1, 1)
	tr.begin("child", p, 1)
	tr.begin("parent", -1, 2)
	set := func(i int, start, end int64) { tr.spans[i].start, tr.spans[i].end = start, end }
	set(0, 0, 100)
	set(1, 10, 40)
	set(2, 15, 25)
	set(3, 50, 70)
	set(4, 200, 210)
	got := tr.selfSeconds("parent")
	if len(got) != 2 || got[0] != 50e-9 || got[1] != 10e-9 {
		t.Errorf("parent self times = %v, want [5e-08 1e-08]", got)
	}
	if got := tr.selfSeconds("child"); len(got) != 2 || got[0] != 20e-9 || got[1] != 20e-9 {
		t.Errorf("child self times = %v, want [2e-08 2e-08]", got)
	}
	var nilTracer *tracer
	if h := nilTracer.begin("x", -1, 0); h != -1 || nilTracer.end(h) != 0 {
		t.Error("a nil tracer recorded a span")
	}
}
