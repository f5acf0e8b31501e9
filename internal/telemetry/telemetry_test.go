package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentInstruments hammers one registry's counters, gauges, and
// HDR histograms from many goroutines and checks the snapshot totals. Run under
// -race this is the telemetry layer's data-race proof.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve instruments inside the goroutine so registry
			// lookup races are exercised too.
			c := reg.Counter("test.counter")
			g := reg.Gauge("test.gauge")
			h := reg.HDR("test.hist", CountSpec)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%10 + 1))
			}
		}()
	}
	wg.Wait()

	s := reg.Snapshot()
	want := int64(workers * perWorker)
	if got := s.Counters["test.counter"]; got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := s.Gauges["test.gauge"]; got != float64(want) {
		t.Errorf("gauge = %g, want %d", got, want)
	}
	h := s.Histograms["test.hist"]
	if h.Count != want {
		t.Errorf("histogram count = %d, want %d", h.Count, want)
	}
	if h.Min != 1 || h.Max != 10 {
		t.Errorf("histogram min/max = %g/%g, want 1/10", h.Min, h.Max)
	}
	var bucketTotal int64
	for _, b := range h.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != want {
		t.Errorf("bucket total = %d, want %d", bucketTotal, want)
	}
}

// TestNilRegistryNoops checks the package's no-op default: every instrument
// of a nil registry absorbs calls without panicking.
func TestNilRegistryNoops(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Counter("x").Add(5)
	reg.Gauge("y").Set(3)
	reg.Gauge("y").Add(1)
	reg.HDR("z", WallLatencySpec).Observe(0.5)
	if v := reg.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if q := reg.HDR("z", WallLatencySpec).Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("nil histogram quantile = %g, want NaN", q)
	}
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
	Emit(nil, Ev("no.tracer")) // must not panic
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.HDR("q", CountSpec)
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct {
		q, want, tol float64
	}{
		{0, 1, 0}, {1, 100, 0}, {0.5, 50, 10}, {0.9, 90, 10}, {0.99, 99, 10},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%g) = %g, want %g ± %g", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestSummaryTextSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.second").Inc()
	reg.Counter("a.first").Add(2)
	reg.Gauge("c.gauge").Set(1.5)
	text := reg.Snapshot().Text()
	wantOrder := []string{"a.first 2", "b.second 1", "c.gauge 1.5"}
	idx := -1
	for _, w := range wantOrder {
		i := strings.Index(text, w)
		if i < 0 {
			t.Fatalf("snapshot text missing %q:\n%s", w, text)
		}
		if i < idx {
			t.Errorf("snapshot text out of order at %q:\n%s", w, text)
		}
		idx = i
	}
}

// TestJSONLGolden pins the exact JSONL serialization: key order, slot/req
// omission rules, and attribute sorting.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	ev := Ev("core.photon_loss", "fiber", 3, "qubit", 17)
	ev.Slot, ev.Req, ev.Code = 12, 0, 2
	tr.Emit(ev)
	tr.Emit(Ev("routing.lp_solved", "status", "optimal", "pivots", 42, "objective", 7.5))
	deliver := Ev("core.deliver", "success", true)
	deliver.Slot, deliver.Req, deliver.Code = 31, 1, 0
	tr.Emit(deliver)
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n := tr.Emitted(); n != 3 {
		t.Errorf("Emitted = %d, want 3", n)
	}

	golden := `{"event":"core.photon_loss","slot":12,"req":0,"code":2,"fiber":3,"qubit":17}
{"event":"routing.lp_solved","objective":7.5,"pivots":42,"status":"optimal"}
{"event":"core.deliver","slot":31,"req":1,"code":0,"success":true}
`
	if got := buf.String(); got != golden {
		t.Errorf("JSONL output mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// Every line must round-trip as standalone JSON.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %d not valid JSON: %v", i, err)
		}
		if _, ok := m["event"]; !ok {
			t.Errorf("line %d missing event field: %s", i, line)
		}
	}
}

func TestJSONLConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(Ev("t", "worker", w, "i", i))
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8*200 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*200)
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved line %q: %v", line, err)
		}
	}
}

func TestCounterDelta(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(3)
	prev := reg.Snapshot()
	reg.Counter("a").Add(2)
	reg.Counter("b").Inc()
	delta := reg.Snapshot().CounterDelta(prev)
	if delta["a"] != 2 || delta["b"] != 1 || len(delta) != 2 {
		t.Errorf("delta = %v, want map[a:2 b:1]", delta)
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Inc()
	reg.HDR("h", CountSpec).Observe(1.5)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var m struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				Le    any   `json:"le"`
				Count int64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if m.Counters["c"] != 1 {
		t.Errorf("counter c = %d", m.Counters["c"])
	}
	h := m.Histograms["h"]
	// The one populated bucket plus the overflow bucket; empty ones elide.
	if h.Count != 1 || len(h.Buckets) != 2 {
		t.Fatalf("histogram = %+v", h)
	}
	if h.Buckets[len(h.Buckets)-1].Le != "+Inf" {
		t.Errorf("overflow bucket le = %v, want +Inf string", h.Buckets[len(h.Buckets)-1].Le)
	}
}
