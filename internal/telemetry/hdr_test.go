package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestHDRBucketBoundsExact pins the bucket layout arithmetic: bounds are
// exactly Min * 2^o * (1 + s/SubBuckets), contiguous, and strictly
// increasing, and a value placed exactly on a boundary lands in the bucket it
// upper-bounds: buckets are (lower, upper], as /metrics reads a le bound.
func TestHDRBucketBoundsExact(t *testing.T) {
	spec := HDRSpec{Min: 1e-6, SubBuckets: 4, Octaves: 10}
	h := NewHDR(spec)
	if got, want := h.NumBuckets(), spec.Octaves*spec.SubBuckets; got != want {
		t.Fatalf("NumBuckets = %d, want %d", got, want)
	}
	for i := 0; i < h.NumBuckets(); i++ {
		o, s := i/spec.SubBuckets, i%spec.SubBuckets
		want := spec.Min * math.Ldexp(1, o) * (1 + float64(s)/float64(spec.SubBuckets))
		if got := h.LowerBound(i); got != want {
			t.Fatalf("LowerBound(%d) = %g, want %g", i, got, want)
		}
		if i > 0 && h.UpperBound(i-1) != h.LowerBound(i) {
			t.Fatalf("bucket %d not contiguous: upper(%d)=%g lower(%d)=%g",
				i, i-1, h.UpperBound(i-1), i, h.LowerBound(i))
		}
		if h.UpperBound(i) <= h.LowerBound(i) {
			t.Fatalf("bucket %d not increasing: (%g, %g]", i, h.LowerBound(i), h.UpperBound(i))
		}
	}
	if !math.IsInf(h.UpperBound(h.NumBuckets()), 1) {
		t.Fatalf("overflow bucket upper bound = %g, want +Inf", h.UpperBound(h.NumBuckets()))
	}
	// Exact boundary values land in the bucket they upper-bound, interior
	// values in their enclosing bucket, for every bucket in the layout.
	for i := 0; i < h.NumBuckets(); i++ {
		if got := h.bucketIndex(h.UpperBound(i)); got != i {
			t.Fatalf("bucketIndex(UpperBound(%d)) = %d", i, got)
		}
		if got := h.bucketIndex(math.Nextafter(h.LowerBound(i), math.Inf(1))); got != i {
			t.Fatalf("bucketIndex(just above LowerBound(%d)) = %d", i, got)
		}
		mid := h.LowerBound(i) + (h.UpperBound(i)-h.LowerBound(i))/2
		if got := h.bucketIndex(mid); got != i {
			t.Fatalf("bucketIndex(mid of %d) = %d", i, got)
		}
	}
	// Clamps: up to Min into bucket 0, beyond-range into overflow.
	if got := h.bucketIndex(spec.Min / 10); got != 0 {
		t.Fatalf("sub-minimum bucket = %d, want 0", got)
	}
	if got := h.bucketIndex(spec.Min); got != 0 {
		t.Fatalf("bucketIndex(Min) = %d, want 0", got)
	}
	top := spec.Min * math.Ldexp(1, spec.Octaves)
	if got := h.bucketIndex(top); got != h.NumBuckets()-1 {
		t.Fatalf("range top bucket = %d, want the last finite %d", got, h.NumBuckets()-1)
	}
	if got := h.bucketIndex(math.Nextafter(top, math.Inf(1))); got != h.NumBuckets() {
		t.Fatalf("beyond-range bucket = %d, want overflow %d", got, h.NumBuckets())
	}
}

// TestHDRQuantileErrorBound checks the estimator against a sorted-sample
// oracle on log-uniform latencies: every reported quantile must be within the
// layout's relative error bound, 2^(1/SubBuckets) - 1, of the true
// order statistic (plus interpolation slack within one bucket).
func TestHDRQuantileErrorBound(t *testing.T) {
	spec := WallLatencySpec
	h := NewHDR(spec)
	r := rand.New(rand.NewSource(7))
	const n = 20000
	samples := make([]float64, n)
	for i := range samples {
		// Log-uniform over [1µs, 1s]: six decades, like real decode tails.
		v := math.Pow(10, -6+6*r.Float64())
		samples[i] = v
		h.Observe(v)
	}
	sort.Float64s(samples)
	// One sub-bucket of relative width, doubled for the rank-vs-boundary
	// interpolation slack.
	relBound := 2 * (math.Pow(2, 1/float64(spec.SubBuckets)) - 1)
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
		idx := int(q*float64(n)) - 1
		if idx < 0 {
			idx = 0
		}
		oracle := samples[idx]
		got := h.Quantile(q)
		if rel := math.Abs(got-oracle) / oracle; rel > relBound {
			t.Errorf("q=%v: got %g, oracle %g, rel err %.4f > bound %.4f",
				q, got, oracle, rel, relBound)
		}
	}
	if got := h.Quantile(0); got != samples[0] {
		t.Errorf("q=0 = %g, want observed min %g", got, samples[0])
	}
	if got := h.Quantile(1); got != samples[n-1] {
		t.Errorf("q=1 = %g, want observed max %g", got, samples[n-1])
	}
}

// TestHDREmptySemantics pins the empty-state convention: NaN Min/Max/Quantile
// (never a fake zero sample), zero Count/Sum, and a snapshot that reports
// zeros with only the overflow bucket.
func TestHDREmptySemantics(t *testing.T) {
	h := NewHDR(WallLatencySpec)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty count=%d sum=%g", h.Count(), h.Sum())
	}
	for name, v := range map[string]float64{
		"Min": h.Min(), "Max": h.Max(), "Quantile(0.5)": h.Quantile(0.5),
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty %s = %g, want NaN", name, v)
		}
	}
	hs := h.snapshot()
	if hs.Count != 0 || hs.Min != 0 || hs.Max != 0 || hs.P999 != 0 {
		t.Errorf("empty snapshot %+v, want zeros", hs)
	}
	if len(hs.Buckets) != 1 || !math.IsInf(hs.Buckets[0].Le, 1) {
		t.Errorf("empty snapshot buckets %+v, want only +Inf", hs.Buckets)
	}
	// A nil HDR is the disabled default everywhere.
	var nilH *HDR
	nilH.Observe(1)
	if !math.IsNaN(nilH.Quantile(0.5)) || nilH.Count() != 0 {
		t.Error("nil HDR must no-op")
	}
	if err := nilH.Merge(h); err != nil {
		t.Errorf("nil merge: %v", err)
	}
}

// TestHDRMerge checks worker-merge semantics: merging shards equals observing
// the union, empty shards are identities (no NaN/Inf leakage), and
// mismatched specs are rejected.
func TestHDRMerge(t *testing.T) {
	spec := HDRSpec{Min: 1e-6, SubBuckets: 8, Octaves: 20}
	union := NewHDR(spec)
	shards := []*HDR{NewHDR(spec), NewHDR(spec), NewHDR(spec)}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 999; i++ {
		v := math.Pow(10, -6+4*r.Float64())
		union.Observe(v)
		shards[i%2].Observe(v) // shard 2 stays empty
	}
	merged := NewHDR(spec)
	for _, sh := range shards {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != union.Count() {
		t.Fatalf("merged count %d, want %d", merged.Count(), union.Count())
	}
	if merged.Min() != union.Min() || merged.Max() != union.Max() {
		t.Fatalf("merged min/max %g/%g, want %g/%g",
			merged.Min(), merged.Max(), union.Min(), union.Max())
	}
	if math.Abs(merged.Sum()-union.Sum()) > 1e-9*union.Sum() {
		t.Fatalf("merged sum %g, want %g", merged.Sum(), union.Sum())
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if merged.Quantile(q) != union.Quantile(q) {
			t.Fatalf("q=%v: merged %g, union %g", q, merged.Quantile(q), union.Quantile(q))
		}
	}
	if err := merged.Merge(NewHDR(HDRSpec{Min: 1e-3, SubBuckets: 8, Octaves: 20})); err == nil {
		t.Fatal("mismatched spec merge must error")
	}
}

// TestHDRConcurrentObserve exercises the atomic update path: total counts
// must be exact under concurrent observation (run under -race in CI).
func TestHDRConcurrentObserve(t *testing.T) {
	h := NewHDR(WallLatencySpec)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				h.Observe(math.Pow(10, -6+3*r.Float64()))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
	var buckets int64
	for i := range h.buckets {
		buckets += h.buckets[i].Load()
	}
	if buckets != workers*per {
		t.Fatalf("bucket total %d, want %d", buckets, workers*per)
	}
}

// TestRegistryHDR checks registry integration: named creation, repeated
// lookups, and snapshot folding with p999.
func TestRegistryHDR(t *testing.T) {
	reg := NewRegistry()
	h := reg.HDR("wall.test_seconds", WallLatencySpec)
	if h == nil {
		t.Fatal("nil HDR from live registry")
	}
	if reg.HDR("wall.test_seconds", HDRSpec{Min: 1, SubBuckets: 1, Octaves: 1}) != h {
		t.Fatal("second HDR lookup must return the existing instrument")
	}
	h.Observe(0.010)
	h.Observe(0.020)
	snap := reg.Snapshot()
	hs, ok := snap.Histograms["wall.test_seconds"]
	if !ok {
		t.Fatalf("HDR missing from snapshot histograms: %v", snap.Histograms)
	}
	if hs.Count != 2 || hs.Min != 0.010 || hs.Max != 0.020 {
		t.Fatalf("snapshot %+v", hs)
	}
	if hs.P999 < hs.P50 || hs.P999 > hs.Max {
		t.Fatalf("p999 %g outside [p50 %g, max %g]", hs.P999, hs.P50, hs.Max)
	}
	// Only populated finite buckets plus overflow are exposed.
	if len(hs.Buckets) > 3 {
		t.Fatalf("expected elided buckets, got %d", len(hs.Buckets))
	}
	var nilReg *Registry
	if nilReg.HDR("x", WallLatencySpec) != nil {
		t.Fatal("nil registry must yield nil HDR")
	}
}
