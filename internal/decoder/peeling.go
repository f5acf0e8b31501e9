package decoder

import (
	"errors"
	"fmt"
)

// ErrClusterInvariant is reported (wrapped) by peeling when the support does
// not satisfy the cluster invariant: some connected component holds an odd
// number of syndromes without touching a virtual boundary vertex. For
// PeelErasure callers this is the signal that the erased edges alone cannot
// explain the syndromes and full cluster growth is required.
var ErrClusterInvariant = errors.New("support does not satisfy the cluster invariant")

// errUnpeelable is built once so that a refusal allocates nothing: most
// packed lanes refuse at the paper's Fig 8 operating point.
var errUnpeelable = fmt.Errorf("decoder: peeling left a live syndrome off the boundary (%w)", ErrClusterInvariant)

// PeelErasure runs the peeling decoder directly on a caller-supplied support,
// skipping cluster growth. It is the erasure fast path of the packed batch
// engine (internal/batch): when every syndrome lies in an even-parity or
// boundary-touching component of the erased edges, cluster growth is a
// provable no-op for the decoders that pre-absorb erasures (UnionFind and
// the default SurfNet), so peeling the erased support — in the same
// ascending-dense-index order growClusters pre-grows it — yields the exact
// correction those decoders would return.
//
// support lists dense edge indices of in.Graph. When the support violates
// the cluster invariant the returned error wraps ErrClusterInvariant and the
// caller must fall back to a full decode; growClusters would have grown the
// support on exactly those inputs. The returned correction aliases the
// scratch; a nil Scratch peels on a fresh arena.
func PeelErasure[E int | int32](in Input, support []E, s *Scratch) ([]int, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	if len(in.Syndromes) == 0 {
		return nil, nil
	}
	if s == nil {
		s = NewScratch()
	}
	return peel(in, support, s)
}

// peelVertex is one vertex's peeling state, live only while stamp equals the
// peeler's: a vertex is initialised when a support edge first touches it.
type peelVertex struct {
	stamp  uint32
	parent int32 // union-find parent
	link   int32 // XOR of the vertex's unpeeled forest edges
	deg    int32 // number of unpeeled forest edges
	rank   uint8
	syn    bool // live syndrome
}

// peeler is the peeling decoder's arena inside a Scratch.
type peeler struct {
	v       []peelVertex
	stamp   uint32
	touched []int32 // vertices in first-touch order
	leaves  []int32
	out     []int
}

// peel runs the peeling decoder of Delfosse–Zémor on support, dense edge
// indices of in.Graph (Algorithm 2 line 11): it takes a spanning forest of
// the support with a union-find, in support order, and peelLeaves peels it.
// It costs O(|support| + |syndromes|); the correction aliases the scratch.
func peel[E int | int32](in Input, support []E, s *Scratch) ([]int, error) {
	dg := in.Graph
	p := &s.peel
	p.reset(dg.G.NumVertices())
	vs, ends := p.v, dg.Endpoints

	// Spanning forest in support order.
	for _, ei := range support {
		e := ends[ei]
		u, v := e[0], e[1]
		p.touch(u)
		p.touch(v)
		ru, rv := p.find(u), p.find(v)
		if ru == rv {
			continue
		}
		if vs[ru].rank < vs[rv].rank {
			ru, rv = rv, ru
		}
		vs[rv].parent = ru
		if vs[ru].rank == vs[rv].rank {
			vs[ru].rank++
		}
		p.link(int32(ei), e)
	}
	a, b := int32(dg.BoundaryA()), int32(dg.BoundaryB())
	return p.peelLeaves(in, vs[a].stamp == p.stamp && vs[b].stamp == p.stamp && p.find(a) == p.find(b))
}

// peelLeaves peels the spanning forest the peeler holds, whose vertices were
// touched in support order: it peels leaves inward, a leaf with a live
// syndrome putting its edge into the correction and handing the syndrome on.
// Boundary A roots its tree, and boundary B its own unless bInA says that
// A's tree holds it, so leftover parity drains into the boundary. A
// boundary-free tree ends wherever its peeling ends; under the cluster
// invariant (every component holds an even number of syndromes or a
// boundary vertex) its syndrome count is even, so its correction does not
// depend on where. peelLeaves returns errUnpeelable when the invariant
// fails.
func (p *peeler) peelLeaves(in Input, bInA bool) ([]int, error) {
	dg := in.Graph
	vs, ends := p.v, dg.Endpoints
	// A syndrome off the support is a lone odd cluster.
	for _, v := range in.Syndromes {
		if vs[v].stamp != p.stamp {
			return nil, errUnpeelable
		}
		vs[v].syn = true
	}

	numReal := int32(dg.NumReal)
	b := int32(dg.BoundaryB())
	peelable := func(v int32) bool { return v < numReal || v == b && bInA }

	leaves := p.leaves[:0]
	for _, v := range p.touched {
		if vs[v].deg == 1 && peelable(v) {
			leaves = append(leaves, v)
		}
	}
	out := p.out[:0]
	for len(leaves) > 0 {
		v := leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		leaf := &vs[v]
		if leaf.deg != 1 {
			continue // its neighbour was peeled first; v ends its tree
		}
		ei := leaf.link
		e := ends[ei]
		u := e[0] ^ e[1] ^ v
		next := &vs[u]
		leaf.deg = 0
		next.deg--
		next.link ^= ei
		if leaf.syn {
			leaf.syn = false
			out = append(out, int(ei))
			next.syn = !next.syn
		}
		if next.deg == 1 && peelable(u) {
			leaves = append(leaves, u)
		} else if next.deg == 0 && next.syn && u < numReal {
			p.leaves, p.out = leaves, out
			return nil, errUnpeelable
		}
	}
	p.leaves, p.out = leaves, out
	return out, nil
}

// reset starts a call on nv vertices; the new stamp retires every record.
func (p *peeler) reset(nv int) {
	if len(p.v) < nv {
		p.v = make([]peelVertex, nv)
	}
	p.stamp++
	if p.stamp == 0 { // wrapped: records 2^32 calls old would look live
		clear(p.v)
		p.stamp = 1
	}
	p.touched = p.touched[:0]
}

// touch initialises v as a singleton tree the first time this call sees it.
func (p *peeler) touch(v int32) {
	if p.v[v].stamp != p.stamp {
		p.v[v] = peelVertex{stamp: p.stamp, parent: v}
		p.touched = append(p.touched, v)
	}
}

// link XOR-folds forest edge ei, between e's two touched vertices, into
// both vertices' links, so a leaf's last edge is its link.
func (p *peeler) link(ei int32, e [2]int32) {
	u, v := &p.v[e[0]], &p.v[e[1]]
	u.link ^= ei
	u.deg++
	v.link ^= ei
	v.deg++
}

// find returns the union-find root of a touched vertex, halving its path.
func (p *peeler) find(v int32) int32 {
	vs := p.v
	for vs[v].parent != v {
		vs[v].parent = vs[vs[v].parent].parent
		v = vs[v].parent
	}
	return v
}
