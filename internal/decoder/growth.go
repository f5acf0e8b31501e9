package decoder

import (
	"fmt"
	"math/bits"
)

// maxGrowthRounds bounds the cluster-growth loop. Growth speeds are clamped
// away from zero (see minErrorProb), so any odd cluster always makes
// progress; the bound only guards against implementation regressions.
const maxGrowthRounds = 1_000_000

// growthConfig parameterizes the shared cluster-growth engine used by both
// the Union-Find baseline and the SurfNet Decoder.
type growthConfig struct {
	// speed returns the growth contribution (in edge units per round) an
	// odd cluster adds to the edge of a data qubit whose clamped error
	// probability (qubitErrProb) is p. It must be a pure function of p:
	// growClusters calls it once per run of equal probabilities.
	speed func(p float64) float64
	// preGrowErasures adds all erased edges to the initial cluster
	// support, the erasure handling of the Union-Find decoder baseline
	// [32]. The SurfNet Decoder instead lets erasures grow at their own
	// (fastest) speed, per Algorithm 2.
	preGrowErasures bool
}

// growVertex is one vertex's cluster-growth state, live only while stamp
// equals the grower's: a vertex is initialised, as a singleton cluster, when
// it is a syndrome or a grown edge first touches it. root is the cluster's
// label, the vertex whose record holds the cluster fields.
type growVertex struct {
	stamp     uint32
	root      int32
	next      int32 // next member of the cluster, -1 after the last
	nextFront int32 // next vertex of the cluster's frontier, -1 after the last

	// Cluster fields, read on a root only.
	size      int32
	last      int32 // last member
	front     int32 // first frontier vertex, -1 when the frontier is empty
	frontLast int32
	odd       bool // odd number of syndromes
	boundary  bool // holds a virtual boundary vertex
	listed    bool // on the active list
}

// growEdge is one edge's growth state, live only while stamp equals the
// grower's: an edge is initialised when it is pre-grown or first borders an
// active cluster.
type growEdge struct {
	stamp  uint32
	grown  bool
	forest bool    // grown, and its fusion joined two clusters
	visits uint8   // visits in this round's marking: its live endpoints
	speed  float64 // what one active endpoint adds per round
	growth float64
}

// grower is the cluster-growth arena inside a Scratch.
type grower struct {
	v         []growVertex
	e         []growEdge
	stamp     uint32
	active    []int32  // roots of the odd, boundary-free clusters
	cand      []uint64 // one round's candidate edges, as a bitmap
	support   []int
	completed []int
}

// growClusters runs the cluster-growth loop (Algorithm 2 lines 1-10) and
// returns the support: the dense edge indices that were grown or pre-grown.
// Growth is synchronous: contributions are computed against the cluster
// state at the start of each round, and fusions happen at the round's end,
// matching the round structure of [32].
//
// A round visits only the ungrown edges next to active (odd, boundary-free)
// clusters, through each cluster's frontier: its member vertices that may
// still have one. Clusters carry explicit labels; a fusion relabels the
// smaller cluster and appends its member and frontier lists to the larger's.
// Each edge's speed is set once per decode, when the edge is first visited,
// and cfg.speed runs only when the qubit's probability differs from the
// last one's. A round's marking counts each candidate's visits: an edge is
// visited once from each endpoint on an active frontier, and every live
// endpoint of an ungrown edge is on one, so the count is its live
// endpoints. The support is the same slice, in the same order, as a scan of
// every edge per round would give: pre-grown erasures in ascending edge
// index, then each round's completed edges in ascending edge index, which
// the round's candidate bitmap yields without a sort. Each support edge
// records whether its fusion joined two clusters; those edges are the
// support's spanning forest in support order, the one the peeler's
// union-find would build.
//
// It costs O(what the decode touches) apart from the scan of the erasure
// mask; the returned slice aliases the scratch. Edge q of a decoding graph is
// data qubit q, so edges look up their probability and erasure by dense
// index.
func growClusters(in Input, cfg growthConfig, s *Scratch) ([]int, error) {
	dg := in.Graph
	g := &s.grow
	g.reset(dg.G.NumVertices(), dg.G.NumEdges())
	vs, es, stamp, ends := g.v, g.e, g.stamp, dg.Endpoints
	numReal := int32(dg.NumReal)
	for _, syn := range in.Syndromes {
		g.touch(int32(syn), numReal)
		vs[syn].odd = true
	}
	support := g.support[:0]
	if cfg.preGrowErasures {
		for ei, erased := range in.Erased {
			if !erased {
				continue
			}
			es[ei] = growEdge{stamp: stamp, grown: true, forest: g.fuse(ends[ei], numReal)}
			support = append(support, ei)
		}
	}
	active := g.active[:0]
	for _, syn := range in.Syndromes {
		active = g.list(active, int32(syn))
	}

	cand := g.cand
	lastP, lastSpeed := -1.0, 0.0 // no clamped probability is negative
	for round := 0; len(active) > 0; round++ {
		if round >= maxGrowthRounds {
			return nil, fmt.Errorf("decoder: cluster growth did not converge after %d rounds", maxGrowthRounds)
		}
		// Mark the round's candidates, dropping frontier vertices that
		// have no ungrown edge left.
		lo, hi := len(cand), -1
		for _, r := range active {
			c := &vs[r]
			c.listed = false
			prev := int32(-1)
			for v := c.front; v != -1; {
				next := vs[v].nextFront
				open := false
				for _, ei := range dg.G.Incident(int(v)) {
					e := &es[ei]
					if e.stamp != stamp {
						if p := qubitErrProb(&in, int(ei)); p != lastP {
							lastP, lastSpeed = p, cfg.speed(p)
						}
						*e = growEdge{stamp: stamp, speed: lastSpeed}
					} else if e.grown {
						continue
					}
					e.visits++
					open = true
					w := int(ei >> 6)
					cand[w] |= 1 << (ei & 63)
					lo, hi = min(lo, w), max(hi, w)
				}
				if open {
					prev = v
				} else {
					if prev == -1 {
						c.front = next
					} else {
						vs[prev].nextFront = next
					}
					if next == -1 {
						c.frontLast = prev
					}
				}
				v = next
			}
		}
		// Grow the candidates in ascending edge index; no cluster changes
		// until every contribution is in.
		completed := g.completed[:0]
		for w := lo; w <= hi; w++ {
			word := cand[w]
			cand[w] = 0
			for ; word != 0; word &= word - 1 {
				ei := w<<6 | bits.TrailingZeros64(word)
				e := &es[ei]
				// speed × 2 is speed + speed exactly, the sum of
				// two live endpoints' contributions.
				e.growth += e.speed * float64(e.visits)
				e.visits = 0
				if e.growth >= 1-1e-12 {
					completed = append(completed, ei)
				}
			}
		}
		support = append(support, completed...)
		// Fusions after the scan: clusters meeting in this round merge
		// together (Algorithm 2 line 7).
		for _, ei := range completed {
			es[ei].grown = true
			es[ei].forest = g.fuse(ends[ei], numReal)
		}
		g.completed = completed
		// Every cluster still active holds one that was active before the
		// fusions, so the new list is the old one relabelled.
		next := active[:0]
		for _, r := range active {
			next = g.list(next, r)
		}
		active = next
	}
	g.active, g.support = active, support
	return support, nil
}

// reset starts a decode on nv vertices and nE edges; the new stamp retires
// every record.
func (g *grower) reset(nv, nE int) {
	if len(g.v) < nv {
		g.v = make([]growVertex, nv)
	}
	if len(g.e) < nE {
		g.e = make([]growEdge, nE)
	}
	if w := (nE + 63) / 64; len(g.cand) < w {
		g.cand = make([]uint64, w)
	}
	g.stamp++
	if g.stamp == 0 { // wrapped: records 2^32 decodes old would look live
		clear(g.v)
		clear(g.e)
		g.stamp = 1
	}
}

// touch initialises v as a singleton cluster, its own frontier, the first
// time this decode sees it.
func (g *grower) touch(v, numReal int32) {
	if g.v[v].stamp != g.stamp {
		g.v[v] = growVertex{
			stamp: g.stamp, root: v, next: -1, nextFront: -1,
			size: 1, last: v, front: v, frontLast: v, boundary: v >= numReal,
		}
	}
}

// sameCluster reports whether u and v were both touched and lie in one
// cluster.
func (g *grower) sameCluster(u, v int32) bool {
	vs := g.v
	return vs[u].stamp == g.stamp && vs[v].stamp == g.stamp && vs[u].root == vs[v].root
}

// list appends the cluster of v to active when it is active and not yet
// listed.
func (g *grower) list(active []int32, v int32) []int32 {
	r := g.v[v].root
	if c := &g.v[r]; c.odd && !c.boundary && !c.listed {
		c.listed = true
		active = append(active, r)
	}
	return active
}

// fuse merges the clusters at the two ends of a grown edge: the smaller
// takes the larger's label, and its member and frontier lists are appended
// to the larger's. It reports whether the edge joined two clusters.
func (g *grower) fuse(end [2]int32, numReal int32) bool {
	g.touch(end[0], numReal)
	g.touch(end[1], numReal)
	vs := g.v
	ru, rv := vs[end[0]].root, vs[end[1]].root
	if ru == rv {
		return false
	}
	if vs[ru].size < vs[rv].size {
		ru, rv = rv, ru
	}
	for w := rv; w != -1; w = vs[w].next {
		vs[w].root = ru
	}
	big, small := &vs[ru], &vs[rv]
	vs[big.last].next = rv
	big.last = small.last
	big.size += small.size
	if small.front != -1 {
		if big.front == -1 {
			big.front = small.front
		} else {
			vs[big.frontLast].nextFront = small.front
		}
		big.frontLast = small.frontLast
	}
	big.odd = big.odd != small.odd
	big.boundary = big.boundary || small.boundary
	return true
}
