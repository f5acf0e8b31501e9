package decoder

import (
	"errors"
	"math"
	"slices"
	"testing"

	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// fuzzBits reads a fuzz input one bit at a time; bits past its end read 0.
type fuzzBits struct {
	buf []byte
	pos int
}

func (r *fuzzBits) bit() bool {
	i := r.pos
	r.pos++
	return i/8 < len(r.buf) && r.buf[i/8]>>(i%8)&1 == 1
}

// FuzzPeelErasure checks the peeler against an oracle that shares no code
// with it, graph.ConnectedComponents over the support: peeling must refuse
// exactly when some component holds an odd number of syndromes and neither
// boundary vertex. An accepted correction must be duplicate-free, lie inside
// the support, and flip exactly the syndrome set on real vertices.
//
// plan picks three distances from {3, 5, 7}, the first two different, which
// are decoded in turn on one Scratch so that the stamp reset and the
// vertex-table resize both run; every answer must equal a fresh Scratch's.
// bits supplies, per problem, the graph kind, the support mask, and either
// an arbitrary syndrome set or one made consistent by flipping the
// endpoints of a subset of the support.
func FuzzPeelErasure(f *testing.F) {
	dists := [3]int{3, 5, 7}
	codes := map[int]*surfacecode.Code{}
	for _, d := range dists {
		codes[d] = surfacecode.MustNew(d, surfacecode.CoreLShape)
	}
	f.Fuzz(func(t *testing.T, plan uint8, bits []byte) {
		first := int(plan) % 3
		second := (first + 1 + int(plan)/3%2) % 3
		third := int(plan) / 6 % 3
		r := &fuzzBits{buf: bits}
		s := NewScratch()
		for _, d := range []int{dists[first], dists[second], dists[third]} {
			c := codes[d]
			kind := surfacecode.ZGraph
			if r.bit() {
				kind = surfacecode.XGraph
			}
			consistent := r.bit()
			dg := c.Graph(kind)
			nE := dg.G.NumEdges()
			var support []int
			var support32 []int32
			inSupport := make([]bool, nE)
			for q := 0; q < nE; q++ {
				if r.bit() {
					support = append(support, q)
					support32 = append(support32, int32(q))
					inSupport[q] = true
				}
			}
			isSyn := make([]bool, dg.G.NumVertices())
			if consistent {
				for _, q := range support {
					if r.bit() {
						e := dg.G.Edge(q)
						isSyn[e.U], isSyn[e.V] = !isSyn[e.U], !isSyn[e.V]
					}
				}
			} else {
				for v := 0; v < dg.NumReal; v++ {
					isSyn[v] = r.bit()
				}
			}
			var syn []int
			for v := 0; v < dg.NumReal; v++ {
				if isSyn[v] {
					syn = append(syn, v)
				}
			}

			// Oracle: component parity and boundary contact.
			labels, k := dg.G.ConnectedComponents(support)
			odd, bnd := make([]bool, k), make([]bool, k)
			for _, v := range syn {
				odd[labels[v]] = !odd[labels[v]]
			}
			bnd[labels[dg.BoundaryA()]] = true
			bnd[labels[dg.BoundaryB()]] = true
			wantRefuse := false
			for i := range odd {
				wantRefuse = wantRefuse || odd[i] && !bnd[i]
			}

			in := Input{Graph: dg, Syndromes: syn, Erased: make([]bool, nE), ErrorProb: make([]float64, nE)}
			corr, err := PeelErasure(in, support32, s)
			fresh, freshErr := PeelErasure(in, support, nil)
			if (err == nil) != (freshErr == nil) || !slices.Equal(corr, fresh) {
				t.Fatalf("d=%d %v: reused scratch gave (%v, %v), fresh scratch (%v, %v)", d, kind, corr, err, fresh, freshErr)
			}
			if wantRefuse {
				if !errors.Is(err, ErrClusterInvariant) {
					t.Fatalf("d=%d %v: support %v, syndromes %v: want a cluster-invariant refusal, got (%v, %v)",
						d, kind, support, syn, corr, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("d=%d %v: support %v, syndromes %v: refused a valid support: %v", d, kind, support, syn, err)
			}
			flipped := make([]bool, dg.G.NumVertices())
			seen := make([]bool, nE)
			for _, q := range corr {
				if seen[q] || !inSupport[q] {
					t.Fatalf("d=%d %v: correction %v repeats or leaves the support %v", d, kind, corr, support)
				}
				seen[q] = true
				e := dg.G.Edge(q)
				flipped[e.U], flipped[e.V] = !flipped[e.U], !flipped[e.V]
			}
			if !slices.Equal(flipped[:dg.NumReal], isSyn[:dg.NumReal]) {
				t.Fatalf("d=%d %v: correction %v does not flip exactly the syndromes %v", d, kind, corr, syn)
			}
		}
	})
}

// TestPeelStampWrap runs the peeler across its stamp's wrap to zero, where
// the vertex table is cleared so records 2^32 calls old cannot look live.
func TestPeelStampWrap(t *testing.T) {
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	in, support, _ := randomErasureInput(c, surfacecode.ZGraph, 0.3, rng.New(5))
	want, err := PeelErasure(in, support, nil)
	if err != nil {
		t.Fatal(err)
	}
	want = slices.Clone(want)
	s := NewScratch()
	for i := 0; i < 3; i++ {
		if i == 1 {
			s.peel.stamp = math.MaxUint32
		}
		got, err := PeelErasure(in, support, s)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("call %d (stamp %d): got (%v, %v), want %v", i, s.peel.stamp, got, err, want)
		}
	}
	if s.peel.stamp != 2 {
		t.Fatalf("stamp after the wrap = %d, want 2", s.peel.stamp)
	}
}

// TestPeelAllocatesNothing pins the packed engine's steady state: on a warm
// Scratch, neither an accepted peel nor either kind of refusal allocates.
// Most packed lanes refuse at the Fig 8 operating point, so an error value
// built per refusal would show up on every batch.
func TestPeelAllocatesNothing(t *testing.T) {
	c := surfacecode.MustNew(7, surfacecode.CoreLShape)
	random, randomSupport, _ := randomErasureInput(c, surfacecode.ZGraph, 0.3, rng.New(9))
	// A chain of two vertical qubits between three Z-ancillas.
	qa := c.DataIndex(surfacecode.Coord{Row: 3, Col: 3})
	qb := c.DataIndex(surfacecode.Coord{Row: 5, Col: 3})
	f := quantum.NewFrame(c.NumData())
	f[qa], f[qb] = quantum.X, quantum.X
	chain := uniformInput(c, surfacecode.ZGraph, c.Syndrome(surfacecode.ZGraph, f), nil, 0.05)
	oddChain := chain
	oddChain.Syndromes = chain.Syndromes[:1]
	s := NewScratch()
	for _, tc := range []struct {
		name    string
		in      Input
		support []int
		refuse  bool
	}{
		{"accept", random, randomSupport, false},
		{"refuse odd tree", oddChain, []int{qa, qb}, true},
		{"refuse syndrome off support", chain, []int{qa}, true},
	} {
		if _, err := PeelErasure(tc.in, tc.support, s); tc.refuse != (err != nil) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if allocs := testing.AllocsPerRun(50, func() { PeelErasure(tc.in, tc.support, s) }); allocs != 0 {
			t.Errorf("%s: %.1f allocs per peel on a warm scratch, want 0", tc.name, allocs)
		}
	}
}
