package surfacecode

import (
	"slices"
	"testing"

	"surfnet/internal/quantum"
	"surfnet/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, CoreLShape); err == nil {
		t.Error("distance 1 should be rejected")
	}
	if _, err := New(3, CoreLayout(0)); err == nil {
		t.Error("invalid core layout should be rejected")
	}
	if _, err := New(3, CoreLShape); err != nil {
		t.Errorf("distance 3 should construct: %v", err)
	}
}

func TestCounts(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5, 7, 9, 11} {
		c := MustNew(d, CoreLShape)
		wantData := d*d + (d-1)*(d-1)
		if c.NumData() != wantData {
			t.Errorf("d=%d: NumData = %d, want %d", d, c.NumData(), wantData)
		}
		if got := c.Graph(ZGraph).NumReal; got != d*(d-1) {
			t.Errorf("d=%d: Z ancillas = %d, want %d", d, got, d*(d-1))
		}
		if got := c.Graph(XGraph).NumReal; got != (d-1)*d {
			t.Errorf("d=%d: X ancillas = %d, want %d", d, got, (d-1)*d)
		}
		// Each data qubit is exactly one edge in each graph.
		if c.Graph(ZGraph).G.NumEdges() != wantData || c.Graph(XGraph).G.NumEdges() != wantData {
			t.Errorf("d=%d: graphs must have one edge per data qubit", d)
		}
		// Paper's axis count: Core has (d-1)+(d-2) qubits.
		if c.CoreSize() != (d-1)+(d-2) {
			t.Errorf("d=%d: core size = %d, want %d", d, c.CoreSize(), (d-1)+(d-2))
		}
		if c.CoreSize()+c.SupportSize() != wantData {
			t.Errorf("d=%d: core+support != data", d)
		}
	}
}

func TestPaperExampleD5(t *testing.T) {
	// §V-A example: "a surface code of 25 data qubits, with 7 data qubits
	// in the Core part" — our d=4 planar code has 25 data qubits; its
	// Core under the paper's axis formula is (4-1)+(4-2) = 5. The 7-core
	// example corresponds to d=5 axes; verify the formula at d=5 instead.
	c := MustNew(5, CoreLShape)
	if c.CoreSize() != 7 {
		t.Errorf("d=5 core = %d, want 7 per the paper's axis count", c.CoreSize())
	}
}

func TestCoreLayouts(t *testing.T) {
	for _, layout := range []CoreLayout{CoreLShape, CoreDiagonal} {
		for _, d := range []int{2, 3, 4, 5, 8, 9} {
			c, err := New(d, layout)
			if err != nil {
				t.Fatalf("d=%d layout=%v: %v", d, layout, err)
			}
			if c.CoreSize() != 2*d-3 {
				t.Errorf("d=%d layout=%v: core size %d, want %d", d, layout, c.CoreSize(), 2*d-3)
			}
			n := 0
			for q := 0; q < c.NumData(); q++ {
				if c.IsCore(q) {
					n++
				}
			}
			if n != c.CoreSize() {
				t.Errorf("d=%d layout=%v: mask count %d != CoreSize %d", d, layout, n, c.CoreSize())
			}
		}
	}
}

func TestDataIndexRoundTrip(t *testing.T) {
	c := MustNew(4, CoreLShape)
	for q := 0; q < c.NumData(); q++ {
		if c.DataIndex(c.DataCoord(q)) != q {
			t.Fatalf("DataIndex(DataCoord(%d)) != %d", q, q)
		}
	}
	if c.DataIndex(Coord{0, 1}) != -1 {
		t.Error("an ancilla site must not resolve to a data qubit")
	}
}

func TestSingleErrorSyndromes(t *testing.T) {
	c := MustNew(3, CoreLShape)
	for q := 0; q < c.NumData(); q++ {
		co := c.DataCoord(q)
		for _, p := range []quantum.Pauli{quantum.X, quantum.Y, quantum.Z} {
			f := quantum.NewFrame(c.NumData())
			f[q] = p
			zs := c.Syndrome(ZGraph, f)
			xs := c.Syndrome(XGraph, f)
			wantZ := p.HasX()
			wantX := p.HasZ()
			if (len(zs) > 0) != wantZ {
				t.Errorf("qubit %d %v at %v: Z-syndrome present=%v, want %v", q, p, co, len(zs) > 0, wantZ)
			}
			if (len(xs) > 0) != wantX {
				t.Errorf("qubit %d %v at %v: X-syndrome present=%v, want %v", q, p, co, len(xs) > 0, wantX)
			}
			// A single error flips one or two real ancillas per
			// affected graph (one when on that graph's boundary).
			if wantZ && len(zs) != 1 && len(zs) != 2 {
				t.Errorf("qubit %d %v: Z-syndrome size %d", q, p, len(zs))
			}
			if wantX && len(xs) != 1 && len(xs) != 2 {
				t.Errorf("qubit %d %v: X-syndrome size %d", q, p, len(xs))
			}
		}
	}
}

func TestBoundaryQubitSyndromeSizes(t *testing.T) {
	c := MustNew(3, CoreLShape)
	// Left-edge horizontal qubit (2,0): X error flips one Z-ancilla.
	f := quantum.NewFrame(c.NumData())
	f[c.DataIndex(Coord{2, 0})] = quantum.X
	if got := len(c.Syndrome(ZGraph, f)); got != 1 {
		t.Errorf("boundary X error: |syndrome| = %d, want 1", got)
	}
	// Bulk vertical qubit (1,1): X error flips two Z-ancillas.
	f = quantum.NewFrame(c.NumData())
	f[c.DataIndex(Coord{1, 1})] = quantum.X
	if got := len(c.Syndrome(ZGraph, f)); got != 2 {
		t.Errorf("bulk X error: |syndrome| = %d, want 2", got)
	}
}

// xStabilizer returns the frame applying X on all data qubits adjacent to the
// measure-X qubit at (i, j).
func xStabilizer(c *Code, i, j int) quantum.Frame {
	f := quantum.NewFrame(c.NumData())
	for _, nb := range []Coord{{i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}} {
		if q := c.DataIndex(nb); q >= 0 {
			f.Apply(q, quantum.X)
		}
	}
	return f
}

// zStabilizer returns the frame applying Z on all data qubits adjacent to the
// measure-Z qubit at (i, j).
func zStabilizer(c *Code, i, j int) quantum.Frame {
	f := quantum.NewFrame(c.NumData())
	for _, nb := range []Coord{{i - 1, j}, {i + 1, j}, {i, j - 1}, {i, j + 1}} {
		if q := c.DataIndex(nb); q >= 0 {
			f.Apply(q, quantum.Z)
		}
	}
	return f
}

func TestStabilizersAreInvisible(t *testing.T) {
	c := MustNew(4, CoreLShape)
	n := 2*c.Distance() - 1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i%2 == 1 && j%2 == 0: // measure-X site
				f := xStabilizer(c, i, j)
				if len(c.Syndrome(ZGraph, f)) != 0 {
					t.Errorf("X-stabilizer at (%d,%d) triggered a syndrome", i, j)
				}
				if c.HasLogicalError(ZGraph, f) {
					t.Errorf("X-stabilizer at (%d,%d) read as a logical error", i, j)
				}
			case i%2 == 0 && j%2 == 1: // measure-Z site
				f := zStabilizer(c, i, j)
				if len(c.Syndrome(XGraph, f)) != 0 {
					t.Errorf("Z-stabilizer at (%d,%d) triggered a syndrome", i, j)
				}
				if c.HasLogicalError(XGraph, f) {
					t.Errorf("Z-stabilizer at (%d,%d) read as a logical error", i, j)
				}
			}
		}
	}
}

func TestLogicalOperators(t *testing.T) {
	c := MustNew(5, CoreLShape)
	// Logical X: X along any even row crossing left-right.
	for i := 0; i < 2*c.Distance()-1; i += 2 {
		f := quantum.NewFrame(c.NumData())
		for j := 0; j < 2*c.Distance()-1; j += 2 {
			f[c.DataIndex(Coord{i, j})] = quantum.X
		}
		if len(c.Syndrome(ZGraph, f)) != 0 {
			t.Errorf("logical X on row %d has a syndrome", i)
		}
		if !c.HasLogicalError(ZGraph, f) {
			t.Errorf("logical X on row %d not detected", i)
		}
		if c.HasLogicalError(XGraph, f) {
			t.Errorf("logical X on row %d misread as logical Z", i)
		}
	}
	// Logical Z: Z along any even column crossing top-bottom.
	for j := 0; j < 2*c.Distance()-1; j += 2 {
		f := quantum.NewFrame(c.NumData())
		for i := 0; i < 2*c.Distance()-1; i += 2 {
			f[c.DataIndex(Coord{i, j})] = quantum.Z
		}
		if len(c.Syndrome(XGraph, f)) != 0 {
			t.Errorf("logical Z on column %d has a syndrome", j)
		}
		if !c.HasLogicalError(XGraph, f) {
			t.Errorf("logical Z on column %d not detected", j)
		}
	}
}

func TestLogicalParityStabilizerInvariance(t *testing.T) {
	// Multiplying any syndrome-free frame by a stabilizer must not change
	// its logical class.
	c := MustNew(4, CoreLShape)
	src := rng.New(17)
	n := 2*c.Distance() - 1
	// Start from a random product of stabilizers (syndrome-free by
	// construction), then check invariance under further stabilizers.
	f := quantum.NewFrame(c.NumData())
	for trial := 0; trial < 50; trial++ {
		i := src.IntN(n)
		j := src.IntN(n)
		switch {
		case i%2 == 1 && j%2 == 0:
			f.Compose(xStabilizer(c, i, j))
		case i%2 == 0 && j%2 == 1:
			f.Compose(zStabilizer(c, i, j))
		default:
			continue
		}
		if len(c.Syndrome(ZGraph, f)) != 0 || len(c.Syndrome(XGraph, f)) != 0 {
			t.Fatal("stabilizer product acquired a syndrome")
		}
		if c.HasLogicalError(ZGraph, f) || c.HasLogicalError(XGraph, f) {
			t.Fatal("stabilizer product read as a logical operator")
		}
	}
}

func TestSyndromeFrameLengthPanics(t *testing.T) {
	c := MustNew(3, CoreLShape)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong frame length should panic")
		}
	}()
	c.Syndrome(ZGraph, quantum.NewFrame(3))
}

func TestGraphKindString(t *testing.T) {
	if ZGraph.String() != "Z-graph" || XGraph.String() != "X-graph" {
		t.Error("GraphKind strings wrong")
	}
	if CoreLShape.String() != "l-shape" || CoreDiagonal.String() != "diagonal" {
		t.Error("CoreLayout strings wrong")
	}
}

func TestBoundaryVertices(t *testing.T) {
	c := MustNew(3, CoreLShape)
	for _, kind := range []GraphKind{ZGraph, XGraph} {
		dg := c.Graph(kind)
		if !dg.IsBoundary(dg.BoundaryA()) || !dg.IsBoundary(dg.BoundaryB()) {
			t.Errorf("%v: boundary vertices not flagged", kind)
		}
		if dg.IsBoundary(0) {
			t.Errorf("%v: real vertex flagged as boundary", kind)
		}
		if len(dg.CutQubits) != c.Distance() {
			t.Errorf("%v: cut size %d, want %d", kind, len(dg.CutQubits), c.Distance())
		}
	}
}

// TestEdgeIndexIsDataQubit pins the indexing the decoders and the packed
// engine rely on: edge q of each decoding graph is data qubit q, and
// Endpoints mirrors G's edge list.
func TestEdgeIndexIsDataQubit(t *testing.T) {
	for _, d := range []int{2, 3, 6} {
		c := MustNew(d, CoreLShape)
		for _, kind := range []GraphKind{ZGraph, XGraph} {
			dg := c.Graph(kind)
			if dg.G.NumEdges() != c.NumData() || len(dg.Endpoints) != c.NumData() {
				t.Fatalf("d=%d %v: %d edges, %d endpoint pairs, %d data qubits",
					d, kind, dg.G.NumEdges(), len(dg.Endpoints), c.NumData())
			}
			for q, ends := range dg.Endpoints {
				e := dg.G.Edge(q)
				if e.ID != q || int(ends[0]) != e.U || int(ends[1]) != e.V {
					t.Fatalf("d=%d %v: edge %d is %+v, endpoints %v", d, kind, q, e, ends)
				}
			}
		}
	}
}

// TestIncidentListsMatchEdges pins the preallocated adjacency: each
// vertex's incident list is exactly its edges in insertion order. The
// boundary vertices, with d > 4 edges, outgrow the room reserved for a
// measurement qubit; a list that grew into its neighbour's room would lose
// or gain entries here.
func TestIncidentListsMatchEdges(t *testing.T) {
	for _, d := range []int{2, 5, 9} {
		c := MustNew(d, CoreDiagonal)
		for _, kind := range []GraphKind{ZGraph, XGraph} {
			dg := c.Graph(kind)
			want := make([][]int32, dg.G.NumVertices())
			for q, ends := range dg.Endpoints {
				want[ends[0]] = append(want[ends[0]], int32(q))
				want[ends[1]] = append(want[ends[1]], int32(q))
			}
			for v, edges := range want {
				if got := dg.G.Incident(v); !slices.Equal(got, edges) {
					t.Fatalf("d=%d %v: vertex %d has incident edges %v, want %v", d, kind, v, got, edges)
				}
			}
			if deg := dg.G.Degree(dg.BoundaryA()); deg != d {
				t.Fatalf("d=%d %v: boundary A has degree %d, want %d", d, kind, deg, d)
			}
		}
	}
}

// refSyndrome is the per-qubit syndrome reference: every qubit whose Pauli
// has the graph's component flips both ends of its edge in G, and the
// flipped real vertices are listed in ascending order.
func refSyndrome(c *Code, kind GraphKind, f quantum.Frame) []int {
	dg := c.Graph(kind)
	parity := make([]bool, dg.G.NumVertices())
	for q, p := range f {
		if kind == ZGraph && p.HasX() || kind == XGraph && p.HasZ() {
			e := dg.G.Edge(q)
			parity[e.U], parity[e.V] = !parity[e.U], !parity[e.V]
		}
	}
	var syn []int
	for v := 0; v < dg.NumReal; v++ {
		if parity[v] {
			syn = append(syn, v)
		}
	}
	return syn
}

// TestSyndromesIntoMatchesPerQubit checks the two-graph syndrome kernel
// against refSyndrome on random frames with X, Y and Z entries and erased
// ones: d from 2 to 9 in both Core layouts, both graphs, on one reused
// Syndromes that codes of every size regrow and reuse in turn. Code.Syndrome
// must agree too.
func TestSyndromesIntoMatchesPerQubit(t *testing.T) {
	src := rng.New(11)
	var s Syndromes
	ys, erasures := 0, 0
	for trial := 0; trial < 12; trial++ {
		for d := 2; d <= 9; d++ {
			for _, layout := range []CoreLayout{CoreLShape, CoreDiagonal} {
				c := MustNew(d, layout)
				frame, erased := UniformNoise(c, 0.15, 0.2).Sample(src.SplitN("t", trial*100+d))
				for q, p := range frame {
					if p == quantum.Y {
						ys++
					}
					if erased[q] {
						erasures++
					}
				}
				c.SyndromesInto(frame, &s)
				for _, kind := range []GraphKind{ZGraph, XGraph} {
					got := s.Z
					if kind == XGraph {
						got = s.X
					}
					want := refSyndrome(c, kind, frame)
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d d=%d %v %v: SyndromesInto %v, per-qubit %v", trial, d, layout, kind, got, want)
					}
					if one := c.Syndrome(kind, frame); !slices.Equal(one, want) {
						t.Fatalf("trial %d d=%d %v %v: Syndrome %v, per-qubit %v", trial, d, layout, kind, one, want)
					}
				}
			}
		}
	}
	if ys == 0 || erasures == 0 {
		t.Fatalf("frames drew %d Y entries and %d erasures; want both", ys, erasures)
	}
}
