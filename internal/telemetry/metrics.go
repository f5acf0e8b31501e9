// Package telemetry is the repo's zero-dependency observability layer: a
// metrics registry of atomic counters, gauges, and fixed-bucket histograms,
// plus a slot-level event tracer with a buffered JSONL sink.
//
// Every type is safe for concurrent use, and every method is a no-op on a
// nil receiver, so uninstrumented call sites pay a single nil check:
//
//	var reg *telemetry.Registry // nil: all instrumentation disabled
//	reg.Counter("core.decodes").Inc()
//
// Hot paths should resolve their instruments once (at construction) and
// hold the resulting *Counter / *Histogram pointers; a nil Registry yields
// nil instruments whose methods cost one predictable branch.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the current value.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets and tracks count,
// sum, min, and max. Buckets are cumulative-upper-bound style: observation v
// lands in the first bucket with v <= bound, or the implicit +Inf overflow
// bucket. All updates are atomic; a snapshot taken mid-update is internally
// consistent to within the in-flight observations.
type Histogram struct {
	bounds  []float64 // ascending finite upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits
	minBits atomic.Uint64 // float64 bits, +Inf when empty
	maxBits atomic.Uint64 // float64 bits, -Inf when empty
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	casFloat(&h.minBits, v, func(cur float64) bool { return v < cur })
	casFloat(&h.maxBits, v, func(cur float64) bool { return v > cur })
}

// ObserveDuration records a duration given in seconds; it is Observe with a
// name that documents the repo-wide convention that timing histograms carry
// seconds.
func (h *Histogram) ObserveDuration(seconds float64) { h.Observe(seconds) }

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// addFloat atomically adds delta to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		v := math.Float64frombits(old) + delta
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// casFloat atomically replaces the stored float when better(current) holds.
func casFloat(bits *atomic.Uint64, v float64, better func(float64) bool) {
	for {
		old := bits.Load()
		if !better(math.Float64frombits(old)) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket containing the target rank, clamped to the observed
// [min, max]. It returns NaN for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	min := math.Float64frombits(h.minBits.Load())
	max := math.Float64frombits(h.maxBits.Load())
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) < rank {
			cum += n
			continue
		}
		lo := min
		if i > 0 {
			lo = math.Max(min, h.bounds[i-1])
		}
		hi := max
		if i < len(h.bounds) {
			hi = math.Min(max, h.bounds[i])
		}
		frac := (rank - float64(cum)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return max
}

// ExpBuckets returns n ascending bucket bounds starting at start and growing
// by factor: start, start*factor, ... Useful for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic(fmt.Sprintf("telemetry: invalid LinearBuckets(%v, %v, %d)", start, width, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Default bucket layouts shared by the instrumented subsystems.
var (
	// DurationBuckets covers 1µs .. ~8.4s in powers of two, for per-call
	// wall-time histograms in seconds.
	DurationBuckets = ExpBuckets(1e-6, 2, 24)
	// SlotBuckets covers 1 .. 512 slots, for latency-in-slots histograms.
	SlotBuckets = ExpBuckets(1, 2, 10)
	// WeightBuckets covers small integer weights (syndrome and correction
	// sizes) 0 .. 96.
	WeightBuckets = LinearBuckets(0, 4, 25)
)

// SanitizeName maps an instrument name onto the characters a Prometheus
// metric name may hold: every character outside [a-zA-Z0-9_] becomes '_'.
// The /metrics exposition renders names through it, so two names that differ
// only in such characters render as one metric family; code that builds
// instrument names from outside input (tenant names) keys them by this form,
// making names that render alike share one instrument.
func SanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Registry is a named collection of instruments. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is the package's no-op
// default: every lookup returns a nil instrument.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	hdrs       map[string]*HDR
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		hdrs:       map[string]*HDR{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Later calls return the existing histogram regardless
// of bounds, so instruments stay consistent across call sites.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if !sort.Float64sAreSorted(bounds) || len(bounds) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %q needs ascending non-empty bounds", name))
		}
		if _, clash := r.hdrs[name]; clash {
			panic(fmt.Sprintf("telemetry: histogram %q collides with an existing HDR", name))
		}
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HDR returns the named log-linear latency histogram, creating it with the
// given layout on first use. Later calls return the existing histogram
// regardless of spec, so instruments stay consistent across call sites. Names
// share the histogram namespace: an HDR and a fixed-bucket Histogram may not
// collide (snapshots would be ambiguous), so reusing a Histogram name panics.
func (r *Registry) HDR(name string, spec HDRSpec) *HDR {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hdrs[name]
	if !ok {
		if _, clash := r.histograms[name]; clash {
			panic(fmt.Sprintf("telemetry: HDR %q collides with an existing histogram", name))
		}
		h = NewHDR(spec)
		r.hdrs[name] = h
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	P50     float64          `json:"p50"`
	P90     float64          `json:"p90"`
	P99     float64          `json:"p99"`
	P999    float64          `json:"p999"`
	Buckets []BucketSnapshot `json:"buckets"`
}

// BucketSnapshot is one histogram bucket: observations <= Le since the
// previous bound. The overflow bucket carries Le = +Inf (serialized "+Inf").
type BucketSnapshot struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders +Inf bounds as the string "+Inf" (JSON has no Inf).
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.Le, 1) {
		le = fmt.Sprintf("%g", b.Le)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" string form, so
// snapshots round-trip (e.g. decoding a /debug/bundle document).
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if len(raw.Le) > 0 && raw.Le[0] == '"' {
		var s string
		if err := json.Unmarshal(raw.Le, &s); err != nil {
			return err
		}
		if s != "+Inf" {
			return fmt.Errorf("telemetry: bad bucket bound %q", s)
		}
		b.Le = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.Le, &b.Le)
}

// Snapshot is a frozen, sorted view of a registry, stable across runs with
// the same instrument activity: maps serialize with sorted keys and the text
// form is sorted by name.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state. On a nil registry it
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		}
		hs.Min = math.Float64frombits(h.minBits.Load())
		hs.Max = math.Float64frombits(h.maxBits.Load())
		if hs.Count == 0 {
			hs.Min, hs.Max = 0, 0
			hs.P50, hs.P90, hs.P99, hs.P999 = 0, 0, 0, 0
		}
		for i := range h.buckets {
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, BucketSnapshot{Le: le, Count: h.buckets[i].Load()})
		}
		s.Histograms[name] = hs
	}
	// HDR latency histograms share the exposition namespace: one
	// HistogramSnapshot each, with empty finite buckets elided (the
	// cumulative Prometheus series is unchanged by the elision).
	for name, h := range r.hdrs {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// CounterDelta returns this snapshot's counters minus prev's, dropping
// zero deltas — the per-figure "what happened during this run" view.
func (s Snapshot) CounterDelta(prev Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// Text renders the snapshot as sorted name-value lines: counters and gauges
// one per line, histograms as a count/sum/min/max/quantile summary line.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "%s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "%s %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "%s count=%d sum=%g min=%g max=%g p50=%g p90=%g p99=%g p999=%g\n",
			name, h.Count, h.Sum, h.Min, h.Max, h.P50, h.P90, h.P99, h.P999)
	}
	return b.String()
}

// WriteJSON writes the snapshot as indented JSON. encoding/json sorts map
// keys, so the output is stable for golden comparisons.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
