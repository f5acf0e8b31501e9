package decoder

import (
	"surfnet/internal/quantum"
	"surfnet/internal/surfacecode"
)

// Scratch is a reusable decode arena: every slice the cluster-growth engine,
// the peeling decoder, the MWPM cache, and the frame harness would otherwise
// allocate per call. Every decode runs on one: Monte Carlo loops and the
// engine keep one Scratch per worker and thread it through DecodeFrame, so
// steady-state decoding stops allocating per trial, and the public entries
// given a nil Scratch decode on a fresh one.
//
// A Scratch is owned by one goroutine at a time; the zero value is ready to
// use. Slices returned by scratch-backed calls (corrections, syndromes,
// Result.Residual) alias the arena and are valid only until the next call
// that receives the same Scratch.
type Scratch struct {
	// Cluster growth (growth.go): version-stamped like the peeler, so a
	// call initialises only the vertices and edges it touches.
	grow grower

	// Peeling (peeling.go): version-stamped, so a call costs
	// O(|support| + |syndromes|) rather than O(graph).
	peel peeler

	// Frame harness (decoder.go).
	parity   []bool
	zSyn     []int
	xSyn     []int
	residual quantum.Frame

	// MWPM decode-path cache (mwpm.go, mwpm_cache.go): the fingerprinted
	// weighted-graph and Dijkstra-table cache plus the blossom arena.
	// Created lazily by the first MWPM.DecodeWith on this arena.
	mwpm *mwpmScratch
}

// NewScratch returns an empty arena. Buffers are sized lazily by the first
// decode that uses them.
func NewScratch() *Scratch { return &Scratch{} }

// growBools returns a zeroed length-n bool slice, reusing buf's capacity.
func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// growFloats returns a zeroed length-n float64 slice, reusing buf's capacity.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// growInt32 returns a length-n int32 slice filled with fill, reusing buf.
func growInt32(buf []int32, n int, fill int32) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// syndrome computes the flipped-parity real vertices of the kind graph for
// frame f — the same quantity as surfacecode.Code.Syndrome — appending into
// out[:0] and reusing the arena's parity buffer.
func (s *Scratch) syndrome(c *surfacecode.Code, kind surfacecode.GraphKind, f quantum.Frame, out []int) []int {
	dg := c.Graph(kind)
	s.parity = growBools(s.parity, dg.NumReal)
	parity := s.parity
	for q, p := range f {
		triggers := (kind == surfacecode.ZGraph && p.HasX()) || (kind == surfacecode.XGraph && p.HasZ())
		if !triggers {
			continue
		}
		e := dg.G.Edge(q)
		if e.U < dg.NumReal {
			parity[e.U] = !parity[e.U]
		}
		if e.V < dg.NumReal {
			parity[e.V] = !parity[e.V]
		}
	}
	out = out[:0]
	for v, on := range parity {
		if on {
			out = append(out, v)
		}
	}
	return out
}
