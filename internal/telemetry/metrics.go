// Package telemetry is the repo's zero-dependency observability layer: a
// metrics registry of atomic counters, gauges, and log-linear HDR
// histograms, plus a slot-level event tracer with a buffered JSONL sink.
//
// Every type is safe for concurrent use, and every method is a no-op on a
// nil receiver, so uninstrumented call sites pay a single nil check:
//
//	var reg *telemetry.Registry // nil: all instrumentation disabled
//	reg.Counter("core.decodes").Inc()
//
// Hot paths should resolve their instruments once (at construction) and
// hold the resulting *Counter / *HDR pointers; a nil Registry yields
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
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hdrs     map[string]*HDR
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hdrs:     map[string]*HDR{},
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

// HDR returns the named log-linear histogram, creating it with the given
// layout on first use. Later calls return the existing histogram regardless
// of spec, so instruments stay consistent across call sites.
func (r *Registry) HDR(name string, spec HDRSpec) *HDR {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hdrs[name]
	if !ok {
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

// BucketSnapshot is one histogram bucket: the count of observations below Le
// and at or above the bucket's lower bound. Empty finite buckets are elided;
// the overflow bucket, always present, carries Le = +Inf (serialized "+Inf").
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
