package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
)

// HDR is the registry's one histogram type: a log-linear histogram in the
// spirit of HdrHistogram. The value axis is divided into octaves (powers of
// two above a configured minimum), and each octave into a fixed number of
// linear sub-buckets, so the bucket layout covers many decades at a bounded
// *relative* error — quantile estimates are within one sub-bucket, i.e.
// within a factor of 2^(1/SubBuckets) of the true value — using a flat,
// allocation-free array of atomic counters. Wall latencies use
// WallLatencySpec and counts (weights, slots, queue depths) CountSpec.
//
// All updates are atomic and every method is a no-op (or returns the empty
// convention) on a nil receiver, matching the package's instrumentation
// contract. HDRs recording the same layout are mergeable across workers with
// Merge, and Quantile resolves the deep tail (p999).
type HDR struct {
	spec    HDRSpec
	buckets []atomic.Int64 // octaves*subBuckets buckets, plus one overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits
	minBits atomic.Uint64 // float64 bits, +Inf when empty
	maxBits atomic.Uint64 // float64 bits, -Inf when empty
}

// HDRSpec fixes an HDR's bucket layout. Two HDRs are mergeable iff their
// specs are equal.
type HDRSpec struct {
	// Min is the smallest distinguishable value; observations up to it land
	// in bucket 0. Must be positive.
	Min float64
	// SubBuckets is the number of linear sub-buckets per octave; the
	// relative quantile error is bounded by 2^(1/SubBuckets) - 1.
	SubBuckets int
	// Octaves is the number of power-of-two ranges covered above Min;
	// values beyond Min * 2^Octaves land in the overflow bucket.
	Octaves int
}

// WallLatencySpec is the repo-wide layout for wall-clock latency in seconds:
// 100ns resolution floor, 8 sub-buckets per octave (≤ ~9.1% relative
// quantile error), 31 octaves reaching past 200s.
var WallLatencySpec = HDRSpec{Min: 1e-7, SubBuckets: 8, Octaves: 31}

// CountSpec is the repo-wide layout for non-negative counts (syndrome and
// correction weights, latencies in slots, queue depths): zero and one share
// bucket 0, each integer from 2 to 16 is the inclusive top of a bucket of its
// own, and 16 octaves reach 65536.
var CountSpec = HDRSpec{Min: 1, SubBuckets: 8, Octaves: 16}

// NewHDR builds an empty histogram with the given layout.
func NewHDR(spec HDRSpec) *HDR {
	if spec.Min <= 0 || spec.SubBuckets < 1 || spec.Octaves < 1 {
		panic(fmt.Sprintf("telemetry: invalid HDRSpec %+v", spec))
	}
	h := &HDR{
		spec:    spec,
		buckets: make([]atomic.Int64, spec.Octaves*spec.SubBuckets+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Spec reports the histogram's layout (the zero HDRSpec on nil).
func (h *HDR) Spec() HDRSpec {
	if h == nil {
		return HDRSpec{}
	}
	return h.spec
}

// NumBuckets reports the number of finite buckets (excluding overflow).
func (h *HDR) NumBuckets() int {
	if h == nil {
		return 0
	}
	return len(h.buckets) - 1
}

// bucketIndex maps a value onto its bucket: values up to Min into bucket 0,
// beyond-range values into the overflow bucket (index NumBuckets()). Buckets
// are (lower, upper] intervals, as Prometheus reads a bucket's le bound: a
// value on a boundary lands in the bucket it upper-bounds.
func (h *HDR) bucketIndex(v float64) int {
	if v <= h.spec.Min {
		return 0
	}
	last := len(h.buckets) - 2
	if v > h.UpperBound(last) {
		return last + 1
	}
	// Octave o covers (Min*2^o, Min*2^(o+1)]; the linear position within
	// it selects the sub-bucket.
	ratio := v / h.spec.Min
	o := min(max(int(math.Floor(math.Log2(ratio))), 0), h.spec.Octaves-1)
	// Position within the octave in (0,1]: (ratio/2^o - 1).
	within := ratio/math.Ldexp(1, o) - 1
	sub := min(max(int(math.Ceil(within*float64(h.spec.SubBuckets)))-1, 0), h.spec.SubBuckets-1)
	idx := o*h.spec.SubBuckets + sub
	// Log2 is not exactly rounded, so v can land one bucket off either way
	// at a boundary; settle it against the exact bound arithmetic (each
	// loop moves at most one step in practice).
	for idx > 0 && v <= h.LowerBound(idx) {
		idx--
	}
	for idx < last && v > h.UpperBound(idx) {
		idx++
	}
	return idx
}

// LowerBound returns the exclusive lower bound of finite bucket i (bucket 0
// extends down to zero: observations up to Min clamp into it).
func (h *HDR) LowerBound(i int) float64 {
	o := i / h.spec.SubBuckets
	sub := i % h.spec.SubBuckets
	return h.spec.Min * math.Ldexp(1, o) * (1 + float64(sub)/float64(h.spec.SubBuckets))
}

// UpperBound returns the inclusive upper bound of finite bucket i, the le
// bound /metrics renders; the overflow bucket (i == NumBuckets()) is
// unbounded (+Inf).
func (h *HDR) UpperBound(i int) float64 {
	if i >= len(h.buckets)-1 {
		return math.Inf(1)
	}
	return h.LowerBound(i + 1)
}

// Observe records one observation. NaN and negative values are dropped (wall
// durations are non-negative by construction; a clock step backwards must not
// poison the histogram).
func (h *HDR) Observe(v float64) {
	if h == nil || math.IsNaN(v) || v < 0 {
		return
	}
	h.buckets[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	casFloat(&h.minBits, v, func(cur float64) bool { return v < cur })
	casFloat(&h.maxBits, v, func(cur float64) bool { return v > cur })
}

// Count reports the number of observations.
func (h *HDR) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observations.
func (h *HDR) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min reports the smallest observation; NaN when empty (the Summary
// convention: NaN propagates visibly instead of faking a zero sample).
func (h *HDR) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max reports the largest observation; NaN when empty, like Min.
func (h *HDR) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return math.NaN()
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket containing the target rank, clamped to the observed
// [min, max]. It returns NaN for an empty histogram. The estimate's relative
// error is bounded by the sub-bucket width, 2^(1/SubBuckets) - 1.
func (h *HDR) Quantile(q float64) float64 {
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
		lo := math.Max(min, h.LowerBound(i))
		if i == 0 {
			lo = min // bucket 0 reaches down to the clamp floor
		}
		hi := math.Min(max, h.UpperBound(i))
		if math.IsInf(hi, 1) {
			hi = max // overflow bucket: the observed max bounds it
		}
		if hi < lo {
			return lo
		}
		frac := (rank - float64(cum)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return max
}

// Merge folds other into h bucket-by-bucket; both must share the same spec.
// Merging an empty histogram is the identity, and the NaN/Inf empty-state
// sentinels never leak into a non-empty result (the PR-5 Min/Max convention).
func (h *HDR) Merge(other *HDR) error {
	if h == nil || other == nil {
		return nil
	}
	if h.spec != other.spec {
		return fmt.Errorf("telemetry: merging HDR specs %+v and %+v", h.spec, other.spec)
	}
	if other.count.Load() == 0 {
		return nil
	}
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	addFloat(&h.sumBits, math.Float64frombits(other.sumBits.Load()))
	omin := math.Float64frombits(other.minBits.Load())
	omax := math.Float64frombits(other.maxBits.Load())
	casFloat(&h.minBits, omin, func(cur float64) bool { return omin < cur })
	casFloat(&h.maxBits, omax, func(cur float64) bool { return omax > cur })
	return nil
}

// snapshot freezes the HDR as a HistogramSnapshot, emitting only non-empty
// finite buckets (plus the +Inf overflow bucket) so a 250-bucket layout stays
// compact in /metrics: dropping zero-count buckets preserves the cumulative
// Prometheus series exactly.
func (h *HDR) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	if hs.Count == 0 {
		hs.Min, hs.Max = 0, 0
		hs.P50, hs.P90, hs.P99, hs.P999 = 0, 0, 0, 0
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 && i != len(h.buckets)-1 {
			continue
		}
		hs.Buckets = append(hs.Buckets, BucketSnapshot{Le: h.UpperBound(i), Count: n})
	}
	return hs
}
