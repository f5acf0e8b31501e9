package decoder

import (
	"fmt"

	"surfnet/internal/graph"
	"surfnet/internal/matching"
	"surfnet/internal/surfacecode"
)

// MWPM is the modified minimum-weight perfect-matching decoder of
// Algorithm 1: it builds the weighted decoding graph from the estimated
// qubit fidelities, constructs the syndrome path graph via shortest paths,
// and matches with the blossom algorithm.
//
// The scratch-backed path caches the fidelity-weighted graph and the
// per-syndrome Dijkstra tables across frames, keyed on a fingerprint of the
// effective fidelity vector, and hands the blossom solver a sparse instance:
// only the "near syndrome" pairs whose direct path beats routing both
// endpoints to a boundary get explicit edges, and boundary matching is
// encoded structurally via matching.MinWeightPerfectBoundary instead of the
// classic twin construction with its explicit zero-weight twin-twin clique.
// See DESIGN.md §10 for the construction and its equivalence argument.
type MWPM struct{}

// Compile-time interface checks.
var (
	_ Decoder        = MWPM{}
	_ ScratchDecoder = MWPM{}
)

// Name implements Decoder.
func (MWPM) Name() string { return "mwpm" }

// Decode implements Decoder.
func (m MWPM) Decode(in Input) ([]int, error) {
	return m.DecodeWith(in, nil)
}

// DecodeWith implements ScratchDecoder. The returned correction aliases the
// scratch; a nil Scratch decodes on a fresh arena.
func (MWPM) DecodeWith(in Input, s *Scratch) ([]int, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Syndromes) == 0 {
		return nil, nil
	}
	if s == nil {
		s = NewScratch()
	}
	if s.mwpm == nil {
		s.mwpm = newMWPMScratch()
	}
	corr, _, err := s.mwpm.decode(in)
	return corr, err
}

// nearestBoundary picks the cheaper of the two virtual boundary vertices
// from sp's source. Exact ties resolve to BoundaryA — the single tie rule
// shared by edge-weight construction and path expansion, so a matched
// syndrome is always expanded toward the same boundary it was priced at.
func nearestBoundary(sp *graph.ShortestPaths, dg *surfacecode.DecodingGraph) (target int, dist float64) {
	target, dist = dg.BoundaryA(), sp.Dist[dg.BoundaryA()]
	if d2 := sp.Dist[dg.BoundaryB()]; d2 < dist {
		target, dist = dg.BoundaryB(), d2
	}
	return target, dist
}

// decode runs the sparse cached MWPM pipeline on the arena, returning the
// correction and the matching total (the latter for equivalence tests).
func (ms *mwpmScratch) decode(in Input) ([]int, float64, error) {
	dg := in.Graph
	q := len(in.Syndromes)
	if q == 0 {
		return nil, 0, nil
	}
	// Step 1 (Alg. 1 line 1): fidelity-weighted decoding graph, refreshed
	// only when the fingerprint moved.
	ent := ms.entryFor(in)
	// Step 2 (lines 2-7): per-syndrome shortest-path tables, cached across
	// frames, plus each syndrome's boundary option.
	ms.growSyndromeBufs(q)
	for i, sVert := range in.Syndromes {
		sp := ms.table(ent, sVert)
		ms.sps[i] = sp
		t, d := nearestBoundary(sp, dg)
		ms.bTarget[i] = int32(t)
		ms.boundary[i] = d
	}
	// Sparse path graph: an explicit pair edge only where the direct path
	// beats sending both endpoints to their boundaries — every other pair
	// is covered implicitly by the boundary option, so dropping its edge
	// cannot change the optimum.
	edges := ms.edges[:0]
	for i := 0; i < q; i++ {
		di := ms.sps[i].Dist
		for j := i + 1; j < q; j++ {
			if w := di[in.Syndromes[j]]; w < ms.boundary[i]+ms.boundary[j] {
				edges = append(edges, matching.Edge{U: i, V: j, Weight: w})
			}
		}
	}
	ms.edges = edges
	// Step 3 (line 8): blossom with structural boundary matching.
	mate, total, err := ms.arena.MinWeightPerfectBoundary(q, edges, ms.boundary)
	if err != nil {
		return nil, 0, fmt.Errorf("matching syndromes: %w", err)
	}
	// Steps 4-5 (lines 9-12): expand matches back into graph paths, XORing
	// multiplicities so overlapping paths cancel.
	ms.flip = growBools(ms.flip, dg.G.NumEdges())
	flip := ms.flip
	addPath := func(sp *graph.ShortestPaths, dst int) {
		for v := dst; v != sp.Source; {
			ei := int(sp.PrevEdge[v])
			id := ent.wg.Edge(ei).ID
			flip[id] = !flip[id]
			v = ent.wg.Other(ei, v)
		}
	}
	for i := 0; i < q; i++ {
		switch m := mate[i]; {
		case m < 0: // retire to the nearest boundary
			addPath(ms.sps[i], int(ms.bTarget[i]))
		case m > i: // syndrome pair, count once
			addPath(ms.sps[i], in.Syndromes[m])
		}
	}
	corr := ms.corr[:0]
	for id, on := range flip {
		if on {
			corr = append(corr, id)
		}
	}
	ms.corr = corr
	return corr, total, nil
}

// decodeDense is the pre-cache reference construction: fresh weighted graph,
// one Dijkstra per syndrome, and the dense 2q-vertex twin instance with the
// explicit zero-weight twin-twin clique. Kept as the oracle for the
// sparse/dense equivalence property tests and benchmarks; not reachable from
// the production path.
func decodeDense(in Input) (corr []int, total float64, err error) {
	if err := in.validate(); err != nil {
		return nil, 0, err
	}
	q := len(in.Syndromes)
	if q == 0 {
		return nil, 0, nil
	}
	dg := in.Graph
	wg := graph.NewWeighted(dg.G.NumVertices())
	for i := 0; i < dg.G.NumEdges(); i++ {
		e := dg.G.Edge(i)
		e.Weight = qubitWeight(in, e.ID)
		wg.AddEdge(e)
	}
	sps := make([]*graph.ShortestPaths, q)
	for i, s := range in.Syndromes {
		sps[i] = wg.Dijkstra(s)
	}
	// Matching instance: vertices [0,q) are syndromes, [q,2q) their
	// boundary twins; twins pair among themselves for free.
	var edges []matching.Edge
	for i := 0; i < q; i++ {
		for j := i + 1; j < q; j++ {
			edges = append(edges, matching.Edge{
				U: i, V: j,
				Weight: sps[i].Dist[in.Syndromes[j]],
			})
		}
		_, bd := nearestBoundary(sps[i], dg)
		edges = append(edges, matching.Edge{U: i, V: q + i, Weight: bd})
		for j := i + 1; j < q; j++ {
			edges = append(edges, matching.Edge{U: q + i, V: q + j, Weight: 0})
		}
	}
	mate, total, err := matching.MinWeightPerfect(2*q, edges)
	if err != nil {
		return nil, 0, fmt.Errorf("matching syndromes: %w", err)
	}
	flip := make([]bool, dg.G.NumEdges())
	addPath := func(path []int) {
		for _, ei := range path {
			id := wg.Edge(ei).ID
			flip[id] = !flip[id]
		}
	}
	for i := 0; i < q; i++ {
		switch m := mate[i]; {
		case m == q+i: // matched to own boundary twin
			target, _ := nearestBoundary(sps[i], dg)
			addPath(sps[i].PathTo(wg, target))
		case m < q && m > i: // syndrome pair, count once
			addPath(sps[i].PathTo(wg, in.Syndromes[m]))
		}
	}
	for id, on := range flip {
		if on {
			corr = append(corr, id)
		}
	}
	return corr, total, nil
}
