package decoder

import (
	"math"

	"surfnet/internal/graph"
	"surfnet/internal/matching"
	"surfnet/internal/surfacecode"
)

// mwpmCounters tracks decode-path cache effectiveness. graphHits/graphMisses
// count fidelity-fingerprint checks on the cached weighted graph (a miss
// rewrites every edge weight in place); spHits/spMisses count per-syndrome
// Dijkstra table lookups (a miss recomputes one table into cached storage).
// DecodeFrame publishes the per-call deltas as telemetry counters.
type mwpmCounters struct {
	graphHits, graphMisses uint64
	spHits, spMisses       uint64
}

func (c mwpmCounters) sub(base mwpmCounters) mwpmCounters {
	return mwpmCounters{
		graphHits:   c.graphHits - base.graphHits,
		graphMisses: c.graphMisses - base.graphMisses,
		spHits:      c.spHits - base.spHits,
		spMisses:    c.spMisses - base.spMisses,
	}
}

func (c mwpmCounters) any() bool {
	return c.graphHits|c.graphMisses|c.spHits|c.spMisses != 0
}

// mwpmCacheEntry is the cached decode state for one DecodingGraph: a weighted
// copy of the graph whose weights track the last-seen fidelity vector, plus
// lazily filled per-source shortest-path tables. Tables carry the generation
// they were computed at; a fingerprint change bumps gen, invalidating every
// table at once without touching them (stale tables are recomputed in place
// only when their source vertex shows a syndrome again).
type mwpmCacheEntry struct {
	wg    *graph.Weighted
	valid bool   // fp is meaningful (first decode must populate weights)
	fp    uint64 // fingerprint of the effective per-qubit error probs
	gen   uint64
	sps   []*graph.ShortestPaths // indexed by source vertex, nil until needed
	spGen []uint64               // generation sps[v] was computed at
}

// mwpmScratch is the MWPM slice of a decode arena: the decoding-graph cache
// (one entry per graph pointer — a frame decode touches the Z- and X-graph
// entries alternately without evicting either), the reusable blossom arena,
// and every per-call buffer of the sparse construction.
type mwpmScratch struct {
	entries map[*surfacecode.DecodingGraph]*mwpmCacheEntry
	arena   *matching.Arena
	ds      graph.DijkstraScratch

	sps      []*graph.ShortestPaths // per-syndrome views into the entry tables
	boundary []float64
	bTarget  []int32 // nearest boundary vertex per syndrome (ties pick BoundaryA)
	edges    []matching.Edge
	flip     []bool
	corr     []int

	counters mwpmCounters
}

func newMWPMScratch() *mwpmScratch {
	return &mwpmScratch{
		entries: make(map[*surfacecode.DecodingGraph]*mwpmCacheEntry),
		arena:   matching.NewArena(),
	}
}

// fingerprintProbs hashes the effective per-qubit error probabilities — the
// clamped ErrorProb vector with erasures pinned at 0.5 — so the cache key
// covers everything qubitWeight depends on. Under `faults` fidelity drift the
// ErrorProb vector changes between frames, the fingerprint moves, and the
// cached weights and tables invalidate automatically.
func fingerprintProbs(in Input) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for q := range in.ErrorProb {
		h ^= math.Float64bits(qubitErrProb(&in, q))
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// entryFor returns the cache entry for in.Graph with weights current for
// in's fidelity vector, creating or refreshing it as needed.
func (ms *mwpmScratch) entryFor(in Input) *mwpmCacheEntry {
	dg := in.Graph
	ent := ms.entries[dg]
	if ent == nil {
		nv := dg.G.NumVertices()
		wg := graph.NewWeighted(nv)
		for i := 0; i < dg.G.NumEdges(); i++ {
			wg.AddEdge(dg.G.Edge(i))
		}
		ent = &mwpmCacheEntry{
			wg:    wg,
			sps:   make([]*graph.ShortestPaths, nv),
			spGen: make([]uint64, nv),
		}
		ms.entries[dg] = ent
	}
	fp := fingerprintProbs(in)
	if ent.valid && ent.fp == fp {
		ms.counters.graphHits++
		return ent
	}
	ms.counters.graphMisses++
	for i := 0; i < ent.wg.NumEdges(); i++ {
		ent.wg.SetWeight(i, qubitWeight(in, ent.wg.Edge(i).ID))
	}
	ent.fp = fp
	ent.valid = true
	ent.gen++ // every cached Dijkstra table is now stale
	return ent
}

// table returns the shortest-path table from source vertex v, reusing the
// cached one when its generation is current and recomputing it in place (no
// allocation once storage exists) otherwise.
func (ms *mwpmScratch) table(ent *mwpmCacheEntry, v int) *graph.ShortestPaths {
	if ent.sps[v] != nil && ent.spGen[v] == ent.gen {
		ms.counters.spHits++
		return ent.sps[v]
	}
	ms.counters.spMisses++
	ent.sps[v] = ent.wg.DijkstraInto(v, ent.sps[v], &ms.ds)
	ent.spGen[v] = ent.gen
	return ent.sps[v]
}

// growSyndromeBufs sizes the per-syndrome working slices for q syndromes.
func (ms *mwpmScratch) growSyndromeBufs(q int) {
	if cap(ms.sps) < q {
		ms.sps = make([]*graph.ShortestPaths, q)
	}
	ms.sps = ms.sps[:q]
	ms.boundary = growFloats(ms.boundary, q)
	ms.bTarget = growInt32(ms.bTarget, q, -1)
}
