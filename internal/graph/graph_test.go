package graph

import (
	"math"
	"testing"
	"testing/quick"

	"surfnet/internal/rng"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 || uf.Len() != 5 {
		t.Fatalf("fresh union-find: count=%d len=%d", uf.Count(), uf.Len())
	}
	if _, merged := uf.Union(0, 1); !merged {
		t.Fatal("first union should merge")
	}
	if _, merged := uf.Union(1, 0); merged {
		t.Fatal("repeated union should not merge")
	}
	if !uf.Same(0, 1) || uf.Same(0, 2) {
		t.Fatal("Same gave wrong answer after union")
	}
	if uf.Count() != 4 {
		t.Fatalf("count after one merge = %d, want 4", uf.Count())
	}
}

func TestUnionFindReset(t *testing.T) {
	uf := NewUnionFind(6)
	uf.Union(0, 1)
	uf.Union(2, 3)
	// Shrinking reset reuses the arrays and clears all state.
	uf.Reset(4)
	if uf.Len() != 4 || uf.Count() != 4 {
		t.Fatalf("after Reset(4): len=%d count=%d", uf.Len(), uf.Count())
	}
	for i := 0; i < 4; i++ {
		if uf.Find(i) != i {
			t.Fatalf("element %d not singleton after reset", i)
		}
	}
	// Growing reset reallocates.
	uf.Reset(10)
	if uf.Len() != 10 || uf.Count() != 10 {
		t.Fatalf("after Reset(10): len=%d count=%d", uf.Len(), uf.Count())
	}
	uf.Union(8, 9)
	if !uf.Same(8, 9) || uf.Same(0, 8) {
		t.Fatal("union after reset broken")
	}
}

func TestUnionFindTransitivity(t *testing.T) {
	uf := NewUnionFind(10)
	uf.Union(0, 1)
	uf.Union(1, 2)
	uf.Union(3, 4)
	if !uf.Same(0, 2) {
		t.Error("union should be transitive")
	}
	if uf.Same(2, 3) {
		t.Error("disjoint sets reported as same")
	}
	uf.Union(2, 3)
	if !uf.Same(0, 4) {
		t.Error("merging chains should connect all members")
	}
}

func TestUnionFindRandomAgainstNaive(t *testing.T) {
	src := rng.New(99)
	const n = 50
	uf := NewUnionFind(n)
	naive := make([]int, n) // naive: component label array
	for i := range naive {
		naive[i] = i
	}
	relabel := func(from, to int) {
		for i := range naive {
			if naive[i] == from {
				naive[i] = to
			}
		}
	}
	for step := 0; step < 200; step++ {
		a, b := src.IntN(n), src.IntN(n)
		if a == b {
			continue
		}
		uf.Union(a, b)
		relabel(naive[a], naive[b])
		// Spot-check consistency on a few random pairs.
		for k := 0; k < 5; k++ {
			x, y := src.IntN(n), src.IntN(n)
			if uf.Same(x, y) != (naive[x] == naive[y]) {
				t.Fatalf("step %d: Same(%d,%d) disagrees with naive labels", step, x, y)
			}
		}
	}
}

// grid builds an r x c grid graph with unit weights for path tests.
func grid(r, c int) *Weighted {
	g := NewWeighted(r * c)
	id := 0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				g.AddEdge(Edge{ID: id, U: v, V: v + 1, Weight: 1})
				id++
			}
			if i+1 < r {
				g.AddEdge(Edge{ID: id, U: v, V: v + c, Weight: 1})
				id++
			}
		}
	}
	return g
}

func TestDijkstraGrid(t *testing.T) {
	g := grid(4, 5)
	sp := g.Dijkstra(0)
	// Manhattan distances on a unit grid.
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			want := float64(i + j)
			if got := sp.Dist[i*5+j]; got != want {
				t.Errorf("dist to (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	path := sp.PathTo(g, 19) // opposite corner
	if len(path) != 7 {
		t.Errorf("path length = %d, want 7", len(path))
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle where the direct edge is heavier than the detour.
	g := NewWeighted(3)
	g.AddEdge(Edge{ID: 0, U: 0, V: 2, Weight: 10})
	g.AddEdge(Edge{ID: 1, U: 0, V: 1, Weight: 3})
	g.AddEdge(Edge{ID: 2, U: 1, V: 2, Weight: 4})
	sp := g.Dijkstra(0)
	if sp.Dist[2] != 7 {
		t.Fatalf("dist = %v, want 7 (detour)", sp.Dist[2])
	}
	path := sp.PathTo(g, 2)
	if len(path) != 2 || g.Edge(path[0]).ID != 1 || g.Edge(path[1]).ID != 2 {
		t.Fatalf("path = %v, want the detour via vertex 1", path)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewWeighted(4)
	g.AddEdge(Edge{U: 0, V: 1, Weight: 1})
	sp := g.Dijkstra(0)
	if !math.IsInf(sp.Dist[3], 1) {
		t.Error("disconnected vertex should be at infinite distance")
	}
	if sp.PathTo(g, 3) != nil {
		t.Error("PathTo unreachable vertex should return nil")
	}
	if p := sp.PathTo(g, 0); p == nil || len(p) != 0 {
		t.Error("PathTo source should return empty non-nil path")
	}
}

func TestDijkstraPathConsistency(t *testing.T) {
	// Property: reconstructed path weights sum to Dist, on random graphs.
	check := func(seed uint64) bool {
		src := rng.New(seed)
		n := 8 + src.IntN(12)
		g := NewWeighted(n)
		// Random connected-ish graph: a spanning chain plus extras.
		for v := 1; v < n; v++ {
			g.AddEdge(Edge{U: v - 1, V: v, Weight: src.Range(0.1, 5)})
		}
		for k := 0; k < n; k++ {
			a, b := src.IntN(n), src.IntN(n)
			if a != b {
				g.AddEdge(Edge{U: a, V: b, Weight: src.Range(0.1, 5)})
			}
		}
		sp := g.Dijkstra(0)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, ei := range sp.PathTo(g, v) {
				sum += g.Edge(ei).Weight
			}
			if math.Abs(sum-sp.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewWeighted(5)
	e1 := g.AddEdge(Edge{U: 0, V: 1, Weight: 1})
	e2 := g.AddEdge(Edge{U: 3, V: 4, Weight: 1})
	labels, k := g.ConnectedComponents([]int{e1, e2})
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if labels[0] != labels[1] || labels[3] != labels[4] {
		t.Error("joined vertices must share labels")
	}
	if labels[0] == labels[2] || labels[0] == labels[3] {
		t.Error("separate components must not share labels")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewWeighted(3)
	for _, bad := range []Edge{
		{U: -1, V: 0}, {U: 0, V: 3}, {U: 1, V: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%+v) should panic", bad)
				}
			}()
			g.AddEdge(bad)
		}()
	}
}

func TestIncidentAndOther(t *testing.T) {
	g := NewWeighted(3)
	ei := g.AddEdge(Edge{ID: 7, U: 0, V: 2, Weight: 1.5})
	if g.Degree(0) != 1 || g.Degree(1) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
	if g.Other(ei, 0) != 2 || g.Other(ei, 2) != 0 {
		t.Fatal("Other returned wrong endpoint")
	}
	if g.Edge(int(g.Incident(2)[0])).ID != 7 {
		t.Fatal("Incident lost the edge ID")
	}
	g.SetWeight(ei, 9)
	if g.Edge(ei).Weight != 9 {
		t.Fatal("SetWeight did not apply")
	}
}
