// Package surfacecode implements the planar surface code used as the logical
// qubit of SurfNet: the lattice layout, the X/Z decoding graphs, syndrome
// extraction, logical-failure checks, and the Core/Support partition of §IV.
//
// The layout follows the paper's Fig. 2: data qubits sit on the edges of a
// square lattice and measurement qubits on its vertices, which is the
// unrotated planar code. Concretely, sites live on a (2d-1) x (2d-1) grid:
//
//   - data qubits at sites with (row+col) even — d^2 + (d-1)^2 of them,
//   - measure-Z qubits at (even row, odd col) — d*(d-1) of them,
//   - measure-X qubits at (odd row, even col) — (d-1)*d of them.
//
// Because measurements are error-free and channel errors are Pauli + erasure
// (§I), the code is simulated in the Pauli frame: syndromes and logical
// failures are parity functions of the sampled error, the standard
// methodology for decoder-threshold studies.
package surfacecode

import (
	"fmt"

	"surfnet/internal/graph"
	"surfnet/internal/quantum"
)

// Coord is a site on the (2d-1) x (2d-1) lattice grid.
type Coord struct {
	Row, Col int
}

// GraphKind selects one of the two decoding graphs of a surface code.
type GraphKind int

const (
	// ZGraph is the graph of measure-Z qubits; it detects X-type error
	// components (X or Y) on data qubits.
	ZGraph GraphKind = 1 + iota
	// XGraph is the graph of measure-X qubits; it detects Z-type error
	// components (Z or Y).
	XGraph
)

// String implements fmt.Stringer.
func (k GraphKind) String() string {
	switch k {
	case ZGraph:
		return "Z-graph"
	case XGraph:
		return "X-graph"
	default:
		return fmt.Sprintf("GraphKind(%d)", int(k))
	}
}

// DecodingGraph is one of the two syndrome graphs of a code: each vertex is a
// measurement qubit and each edge is a data qubit (§IV-C). Real measurement
// vertices are [0, NumReal); two virtual boundary vertices follow. Edges are
// added in data-qubit order, so dense edge index q of G is data qubit q
// (G.Edge(q).ID == q).
type DecodingGraph struct {
	Kind    GraphKind
	G       *graph.Weighted
	NumReal int
	// CutQubits are the data-qubit indices of a fixed homology cut: a
	// syndrome-free residual error is a logical operator exactly when it
	// overlaps the cut an odd number of times.
	CutQubits []int
	// Endpoints[q] holds the two vertices of edge q: a flat copy of G's
	// edge list for the hot loops (packed syndrome folds, peeling) that
	// would otherwise copy a graph.Edge per access.
	Endpoints [][2]int32
}

// newDecodingGraph wraps g, whose edge q must be data qubit q, and fills
// the flat endpoint table.
func newDecodingGraph(kind GraphKind, g *graph.Weighted, numReal int, cut []int) *DecodingGraph {
	ends := make([][2]int32, g.NumEdges())
	for q := range ends {
		e := g.Edge(q)
		ends[q] = [2]int32{int32(e.U), int32(e.V)}
	}
	return &DecodingGraph{Kind: kind, G: g, NumReal: numReal, CutQubits: cut, Endpoints: ends}
}

// BoundaryA and BoundaryB return the two virtual boundary vertices
// (left/right for the Z-graph, top/bottom for the X-graph).
func (dg *DecodingGraph) BoundaryA() int { return dg.NumReal }

// BoundaryB returns the second virtual boundary vertex.
func (dg *DecodingGraph) BoundaryB() int { return dg.NumReal + 1 }

// IsBoundary reports whether vertex v is virtual.
func (dg *DecodingGraph) IsBoundary(v int) bool { return v >= dg.NumReal }

// Code is a distance-d planar surface code.
type Code struct {
	d         int
	layout    CoreLayout
	data      []Coord
	dataIndex map[Coord]int
	zg, xg    *DecodingGraph
	core      []bool
	coreSize  int
}

// CoreLayout selects the fixed Core-part topology (§IV commits to a fixed
// topology; the paper's axis count (d-1)+(d-2) is preserved by both layouts).
type CoreLayout int

const (
	// CoreLShape places the Core along the left and top boundary cuts:
	// one qubit on each of the d-1 internal logical-X axes (rows) and each
	// of the d-2 internal logical-Z axes (columns). Every straight logical
	// chain must then pass a Core qubit or a lattice corner. This is the
	// default fixed topology.
	CoreLShape CoreLayout = 1 + iota
	// CoreDiagonal scatters the same number of Core qubits along two
	// diagonals, one qubit per axis, as an ablation of the Core geometry.
	CoreDiagonal
)

// String implements fmt.Stringer.
func (l CoreLayout) String() string {
	switch l {
	case CoreLShape:
		return "l-shape"
	case CoreDiagonal:
		return "diagonal"
	default:
		return fmt.Sprintf("CoreLayout(%d)", int(l))
	}
}

// New constructs a distance-d planar surface code with the given Core layout.
// It returns an error when d < 2 (a distance-1 "code" has no protection and
// no measurement qubits).
func New(d int, layout CoreLayout) (*Code, error) {
	if d < 2 {
		return nil, fmt.Errorf("surfacecode: distance must be >= 2, got %d", d)
	}
	switch layout {
	case CoreLShape, CoreDiagonal:
	default:
		return nil, fmt.Errorf("surfacecode: unknown core layout %v", layout)
	}
	nData := d*d + (d-1)*(d-1)
	c := &Code{
		d:         d,
		layout:    layout,
		data:      make([]Coord, 0, nData),
		dataIndex: make(map[Coord]int, nData),
	}
	n := 2*d - 1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i+j)%2 == 0 {
				c.dataIndex[Coord{i, j}] = len(c.data)
				c.data = append(c.data, Coord{i, j})
			}
		}
	}
	c.buildZGraph()
	c.buildXGraph()
	if err := c.buildCore(layout); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNew is New but panics on error; for tests and fixed-parameter tools.
func MustNew(d int, layout CoreLayout) *Code {
	c, err := New(d, layout)
	if err != nil {
		panic(err)
	}
	return c
}

// Distance reports the code distance d.
func (c *Code) Distance() int { return c.d }

// Layout reports the Core layout the code was built with.
func (c *Code) Layout() CoreLayout { return c.layout }

// NumData reports the number of data qubits: d^2 + (d-1)^2.
func (c *Code) NumData() int { return len(c.data) }

// DataCoord returns the lattice site of data qubit q.
func (c *Code) DataCoord(q int) Coord { return c.data[q] }

// DataIndex returns the index of the data qubit at site co, or -1 when the
// site holds no data qubit.
func (c *Code) DataIndex(co Coord) int {
	q, ok := c.dataIndex[co]
	if !ok {
		return -1
	}
	return q
}

// Graph returns the decoding graph of the requested kind.
func (c *Code) Graph(kind GraphKind) *DecodingGraph {
	if kind == ZGraph {
		return c.zg
	}
	return c.xg
}

// CoreMask returns, per data qubit, whether it belongs to the Core part. The
// returned slice is a copy.
func (c *Code) CoreMask() []bool {
	out := make([]bool, len(c.core))
	copy(out, c.core)
	return out
}

// IsCore reports whether data qubit q belongs to the Core part.
func (c *Code) IsCore(q int) bool { return c.core[q] }

// CoreSize reports the number of Core data qubits: (d-1)+(d-2).
func (c *Code) CoreSize() int { return c.coreSize }

// SupportSize reports the number of Support data qubits.
func (c *Code) SupportSize() int { return c.NumData() - c.coreSize }

// maxRealDegree is the most data qubits a measurement qubit touches; only
// the two virtual boundary vertices, with d each, have more.
const maxRealDegree = 4

// zAncilla maps a measure-Z site (even row, odd col) to its vertex index.
func (c *Code) zAncilla(i, j int) int { return (i/2)*(c.d-1) + (j-1)/2 }

// xAncilla maps a measure-X site (odd row, even col) to its vertex index.
func (c *Code) xAncilla(i, j int) int { return ((i-1)/2)*c.d + j/2 }

// buildZGraph wires the measure-Z decoding graph. Horizontal data qubits
// (both coordinates even) connect Z-ancillas left and right of them, spilling
// onto the left/right virtual boundaries at the lattice edge; vertical data
// qubits (both odd) connect Z-ancillas above and below and are always
// internal.
func (c *Code) buildZGraph() {
	numReal := c.d * (c.d - 1)
	g := graph.NewWeightedCap(numReal+2, len(c.data), maxRealDegree)
	left, right := numReal, numReal+1
	maxC := 2*c.d - 2
	var cut []int
	for q, co := range c.data {
		i, j := co.Row, co.Col
		var u, v int
		if i%2 == 0 { // horizontal data qubit
			if j == 0 {
				u = left
				cut = append(cut, q)
			} else {
				u = c.zAncilla(i, j-1)
			}
			if j == maxC {
				v = right
			} else {
				v = c.zAncilla(i, j+1)
			}
		} else { // vertical data qubit
			u = c.zAncilla(i-1, j)
			v = c.zAncilla(i+1, j)
		}
		g.AddEdge(graph.Edge{ID: q, U: u, V: v, Weight: 1})
	}
	c.zg = newDecodingGraph(ZGraph, g, numReal, cut)
}

// buildXGraph wires the measure-X decoding graph. Horizontal data qubits
// (both even) connect X-ancillas above and below, spilling onto the
// top/bottom virtual boundaries; vertical data qubits (both odd) connect
// X-ancillas left and right and are always internal.
func (c *Code) buildXGraph() {
	numReal := (c.d - 1) * c.d
	g := graph.NewWeightedCap(numReal+2, len(c.data), maxRealDegree)
	top, bottom := numReal, numReal+1
	maxR := 2*c.d - 2
	var cut []int
	for q, co := range c.data {
		i, j := co.Row, co.Col
		var u, v int
		if i%2 == 0 { // data qubit between vertically adjacent X-ancillas
			if i == 0 {
				u = top
				cut = append(cut, q)
			} else {
				u = c.xAncilla(i-1, j)
			}
			if i == maxR {
				v = bottom
			} else {
				v = c.xAncilla(i+1, j)
			}
		} else {
			u = c.xAncilla(i, j-1)
			v = c.xAncilla(i, j+1)
		}
		g.AddEdge(graph.Edge{ID: q, U: u, V: v, Weight: 1})
	}
	c.xg = newDecodingGraph(XGraph, g, numReal, cut)
}

// buildCore selects the Core data qubits: one per internal logical axis,
// (d-1) row axes plus (d-2) column axes (§IV: "distance-k ... has
// (k-1)+(k-2) such axes").
func (c *Code) buildCore(layout CoreLayout) error {
	c.core = make([]bool, len(c.data))
	mark := func(co Coord) error {
		q := c.DataIndex(co)
		if q < 0 {
			return fmt.Errorf("surfacecode: core site %v holds no data qubit", co)
		}
		if c.core[q] {
			return fmt.Errorf("surfacecode: core site %v selected twice", co)
		}
		c.core[q] = true
		c.coreSize++
		return nil
	}
	d := c.d
	switch layout {
	case CoreLShape:
		// Row axes t = 1..d-1 guarded at the left cut; column axes
		// s = 1..d-2 guarded at the top cut.
		for t := 1; t <= d-1; t++ {
			if err := mark(Coord{2 * t, 0}); err != nil {
				return err
			}
		}
		for s := 1; s <= d-2; s++ {
			if err := mark(Coord{0, 2 * s}); err != nil {
				return err
			}
		}
	case CoreDiagonal:
		// One qubit per axis along two diagonals. Row axis t sits at
		// (2t, 2(t-1)); column axis s at (2(d-1-s), 2s), nudged when it
		// would collide with a row pick.
		for t := 1; t <= d-1; t++ {
			if err := mark(Coord{2 * t, 2 * (t - 1)}); err != nil {
				return err
			}
		}
		for s := 1; s <= d-2; s++ {
			co := Coord{2 * (d - 1 - s), 2 * s}
			if q := c.DataIndex(co); q >= 0 && c.core[q] {
				// Collision with the row diagonal (happens for
				// even d at the crossing axis): shift one cell.
				co.Row -= 2
				if co.Row < 0 {
					co.Row += 4
				}
			}
			if err := mark(co); err != nil {
				return err
			}
		}
	}
	return nil
}

// Syndrome extracts the syndrome of error frame f on the requested decoding
// graph: the list of real measurement vertices whose parity flipped. The
// frame must cover all data qubits.
func (c *Code) Syndrome(kind GraphKind, f quantum.Frame) []int {
	if len(f) != len(c.data) {
		panic(fmt.Sprintf("surfacecode: frame covers %d qubits, code has %d", len(f), len(c.data)))
	}
	dg := c.Graph(kind)
	parity := make([]bool, dg.NumReal)
	for q, p := range f {
		triggers := (kind == ZGraph && p.HasX()) || (kind == XGraph && p.HasZ())
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
	var syn []int
	for v, on := range parity {
		if on {
			syn = append(syn, v)
		}
	}
	return syn
}

// HasLogicalError reports whether a syndrome-free residual frame carries a
// logical operator on the given graph: odd overlap with the graph's homology
// cut. Callers must only pass residuals whose syndrome is empty; the parity
// is not a homology invariant otherwise.
func (c *Code) HasLogicalError(kind GraphKind, residual quantum.Frame) bool {
	dg := c.Graph(kind)
	odd := false
	for _, q := range dg.CutQubits {
		p := residual[q]
		if (kind == ZGraph && p.HasX()) || (kind == XGraph && p.HasZ()) {
			odd = !odd
		}
	}
	return odd
}
