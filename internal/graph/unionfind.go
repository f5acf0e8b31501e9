// Package graph provides the graph primitives shared by the decoders and the
// routing layer: Dijkstra shortest paths on weighted adjacency structures
// (the MWPM decoder and routing), plus a union-find and connected
// components, which only the test oracles of cluster growth and peeling use;
// the decoders themselves grow and peel on their own version-stamped records.
package graph

// UnionFind is a disjoint-set forest with union by rank and path compression.
// Find and Union run in amortized O(alpha(n)) time.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int
}

// NewUnionFind returns a structure over n singleton elements.
func NewUnionFind(n int) *UnionFind {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return &UnionFind{
		parent: parent,
		rank:   make([]int8, n),
		count:  n,
	}
}

// Len reports the number of elements.
func (u *UnionFind) Len() int { return len(u.parent) }

// Reset reinitializes the structure to n singleton elements, reusing the
// backing arrays when their capacity allows, so a loop that builds one
// union-find per input (the cluster-growth oracle of the decoder tests)
// allocates once.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
		u.rank = make([]int8, n)
	} else {
		u.parent = u.parent[:n]
		u.rank = u.rank[:n]
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
	u.count = n
}

// Count reports the number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	root := int32(x)
	for u.parent[root] != root {
		root = u.parent[root]
	}
	// Path compression.
	for int32(x) != root {
		next := u.parent[x]
		u.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets containing a and b and returns the representative of
// the merged set. It reports whether a merge happened (false when a and b
// were already in the same set).
func (u *UnionFind) Union(a, b int) (root int, merged bool) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra, false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	return ra, true
}

// Same reports whether a and b belong to the same set.
func (u *UnionFind) Same(a, b int) bool { return u.Find(a) == u.Find(b) }
