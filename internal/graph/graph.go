package graph

import (
	"fmt"
	"math"
)

// Edge is an undirected weighted edge between vertices U and V. ID is the
// caller's identifier for the edge (decoders use it to map edges back to data
// qubits; routing uses it to map back to optical fibers).
type Edge struct {
	ID     int
	U, V   int
	Weight float64
}

// Weighted is an undirected weighted multigraph with a fixed vertex count.
// Vertices are dense integers [0, N). It is the shared representation for
// decoding graphs and network topologies.
type Weighted struct {
	n     int
	edges []Edge
	adj   [][]int32 // vertex -> indices into edges
}

// NewWeighted returns an empty graph over n vertices.
func NewWeighted(n int) *Weighted { return NewWeightedCap(n, 0, 0) }

// NewWeightedCap is NewWeighted with room for edges edges and, per vertex,
// degree incident edges, so a graph whose size is known up front is built
// without regrowing its slices. A vertex that takes more than degree edges
// regrows its own list and never writes into a neighbour's room.
func NewWeightedCap(n, edges, degree int) *Weighted {
	g := &Weighted{
		n:     n,
		edges: make([]Edge, 0, edges),
		adj:   make([][]int32, n),
	}
	room := make([]int32, n*degree)
	for v := range g.adj {
		g.adj[v] = room[v*degree : v*degree : (v+1)*degree]
	}
	return g
}

// NumVertices reports the vertex count.
func (g *Weighted) NumVertices() int { return g.n }

// NumEdges reports the edge count.
func (g *Weighted) NumEdges() int { return len(g.edges) }

// AddEdge inserts an undirected edge and returns its dense index within the
// graph (not the caller-supplied ID). Self-loops are rejected because neither
// decoding graphs nor optical-fiber topologies contain them.
func (g *Weighted) AddEdge(e Edge) int {
	if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
		panic(fmt.Sprintf("graph: edge endpoints (%d, %d) out of range [0, %d)", e.U, e.V, g.n))
	}
	if e.U == e.V {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", e.U))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, e)
	g.adj[e.U] = append(g.adj[e.U], int32(idx))
	g.adj[e.V] = append(g.adj[e.V], int32(idx))
	return idx
}

// Edge returns the edge at dense index i.
func (g *Weighted) Edge(i int) Edge { return g.edges[i] }

// SetWeight updates the weight of the edge at dense index i.
func (g *Weighted) SetWeight(i int, w float64) { g.edges[i].Weight = w }

// Incident returns the dense edge indices incident to vertex v. The returned
// slice is owned by the graph and must not be mutated.
func (g *Weighted) Incident(v int) []int32 { return g.adj[v] }

// Degree reports the number of edges incident to v.
func (g *Weighted) Degree(v int) int { return len(g.adj[v]) }

// Other returns the endpoint of edge index i that is not v.
func (g *Weighted) Other(i, v int) int {
	e := g.edges[i]
	if e.U == v {
		return e.V
	}
	return e.U
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	v    int
	dist float64
}

// pq is a binary min-heap on dist, manipulated by pqPush/pqPop directly so
// frontier operations never box items through an interface.
type pq []pqItem

func pqPush(q pq, it pqItem) pq {
	q = append(q, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].dist <= q[i].dist {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	return q
}

func pqPop(q pq) (pqItem, pq) {
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q[l].dist < q[m].dist {
			m = l
		}
		if r < n && q[r].dist < q[m].dist {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top, q
}

// ShortestPaths holds single-source Dijkstra results: Dist[v] is the minimum
// weight from the source, and PrevEdge[v] is the dense index of the edge used
// to reach v (-1 at the source and at unreachable vertices).
type ShortestPaths struct {
	Source   int
	Dist     []float64
	PrevEdge []int32
}

// DijkstraScratch is a reusable frontier buffer for DijkstraInto, so repeated
// single-source computations (the MWPM decode cache refreshing per-syndrome
// tables) allocate nothing in steady state. The zero value is ready to use.
type DijkstraScratch struct {
	q pq
}

// Dijkstra computes shortest paths from src over non-negative edge weights.
func (g *Weighted) Dijkstra(src int) *ShortestPaths {
	return g.DijkstraInto(src, nil, nil)
}

// DijkstraInto is Dijkstra with caller-owned storage: the result is written
// into sp (reusing its Dist/PrevEdge capacity) and the frontier heap lives in
// ds. A nil sp or ds allocates fresh, so DijkstraInto(src, nil, nil) is
// exactly Dijkstra(src).
func (g *Weighted) DijkstraInto(src int, sp *ShortestPaths, ds *DijkstraScratch) *ShortestPaths {
	if sp == nil {
		sp = &ShortestPaths{}
	}
	sp.Source = src
	if cap(sp.Dist) < g.n {
		sp.Dist = make([]float64, g.n)
	}
	sp.Dist = sp.Dist[:g.n]
	if cap(sp.PrevEdge) < g.n {
		sp.PrevEdge = make([]int32, g.n)
	}
	sp.PrevEdge = sp.PrevEdge[:g.n]
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.PrevEdge[i] = -1
	}
	sp.Dist[src] = 0
	var q pq
	if ds != nil {
		q = ds.q[:0]
	}
	q = append(q, pqItem{v: src, dist: 0})
	for len(q) > 0 {
		var it pqItem
		it, q = pqPop(q)
		if it.dist > sp.Dist[it.v] {
			continue // stale entry
		}
		for _, ei := range g.adj[it.v] {
			e := g.edges[ei]
			w := it.dist + e.Weight
			u := e.V
			if u == it.v {
				u = e.U
			}
			if w < sp.Dist[u] {
				sp.Dist[u] = w
				sp.PrevEdge[u] = ei
				q = pqPush(q, pqItem{v: u, dist: w})
			}
		}
	}
	if ds != nil {
		ds.q = q // keep the grown heap capacity for the next call
	}
	return sp
}

// PathTo reconstructs the dense edge indices of the shortest path from the
// source to dst, in order from source to dst. It returns nil when dst is
// unreachable and an empty slice when dst is the source.
func (sp *ShortestPaths) PathTo(g *Weighted, dst int) []int {
	if math.IsInf(sp.Dist[dst], 1) {
		return nil
	}
	var rev []int
	for v := dst; v != sp.Source; {
		ei := sp.PrevEdge[v]
		rev = append(rev, int(ei))
		v = g.Other(int(ei), v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if rev == nil {
		rev = []int{}
	}
	return rev
}

// ConnectedComponents labels every vertex with a component id in [0, k) and
// returns the labels and k, considering only the given edges. Vertices
// untouched by any edge form singleton components.
func (g *Weighted) ConnectedComponents(edgeIdx []int) (labels []int, k int) {
	uf := NewUnionFind(g.n)
	for _, ei := range edgeIdx {
		e := g.edges[ei]
		uf.Union(e.U, e.V)
	}
	labels = make([]int, g.n)
	next := 0
	remap := make(map[int]int, g.n)
	for v := 0; v < g.n; v++ {
		r := uf.Find(v)
		id, ok := remap[r]
		if !ok {
			id = next
			next++
			remap[r] = id
		}
		labels[v] = id
	}
	return labels, next
}
