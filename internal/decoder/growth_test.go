package decoder

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"surfnet/internal/graph"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// scanArena holds the buffers of scanGrowClusters.
type scanArena struct {
	uf        *graph.UnionFind
	odd       []bool
	boundary  []bool
	growth    []float64
	grown     []bool
	support   []int
	completed []int
}

// scanState tracks per-cluster parity and boundary contact, keyed by
// union-find root. Its buffers live in the scanArena.
type scanState struct {
	uf       *graph.UnionFind
	odd      []bool // odd number of syndromes in cluster
	boundary []bool // cluster touches a virtual boundary vertex
}

func newScanState(in Input, s *scanArena) scanState {
	nv := in.Graph.G.NumVertices()
	if s.uf == nil {
		s.uf = graph.NewUnionFind(nv)
	} else {
		s.uf.Reset(nv)
	}
	s.odd = growBools(s.odd, nv)
	s.boundary = growBools(s.boundary, nv)
	cs := scanState{uf: s.uf, odd: s.odd, boundary: s.boundary}
	for _, syn := range in.Syndromes {
		cs.odd[syn] = true
	}
	cs.boundary[in.Graph.BoundaryA()] = true
	cs.boundary[in.Graph.BoundaryB()] = true
	return cs
}

// active reports whether the cluster containing vertex v still needs to grow:
// odd parity and no boundary contact (a boundary absorbs any parity).
func (cs *scanState) active(v int) bool {
	r := cs.uf.Find(v)
	return cs.odd[r] && !cs.boundary[r]
}

// fuse merges the clusters of u and v, combining parity and boundary flags.
func (cs *scanState) fuse(u, v int) {
	ru, rv := cs.uf.Find(u), cs.uf.Find(v)
	if ru == rv {
		return
	}
	odd := cs.odd[ru] != cs.odd[rv]
	bnd := cs.boundary[ru] || cs.boundary[rv]
	r, _ := cs.uf.Union(ru, rv)
	cs.odd[r] = odd
	cs.boundary[r] = bnd
}

// anyActive reports whether any odd cluster remains.
func (cs *scanState) anyActive(in Input) bool {
	for _, syn := range in.Syndromes {
		if cs.active(syn) {
			return true
		}
	}
	return false
}

// scanGrowClusters is the full-scan cluster growth that the frontier-driven
// growClusters replaced, kept as its oracle: every round visits every edge,
// finds both endpoints' clusters in a union-find and asks cfg.speed for each
// active one. Apart from its arena it is the replaced code verbatim.
func scanGrowClusters(in Input, cfg growthConfig, s *scanArena) ([]int, error) {
	dg := in.Graph
	cs := newScanState(in, s)
	nE := dg.G.NumEdges()
	s.growth = growFloats(s.growth, nE)
	s.grown = growBools(s.grown, nE)
	growth, grown := s.growth, s.grown
	support := s.support[:0]

	absorb := func(ei int) {
		grown[ei] = true
		support = append(support, ei)
	}
	if cfg.preGrowErasures {
		for ei := 0; ei < nE; ei++ {
			if in.Erased[dg.G.Edge(ei).ID] {
				absorb(ei)
				e := dg.G.Edge(ei)
				cs.fuse(e.U, e.V)
			}
		}
	}

	for round := 0; cs.anyActive(in); round++ {
		if round >= maxGrowthRounds {
			return nil, fmt.Errorf("decoder: cluster growth did not converge after %d rounds", maxGrowthRounds)
		}
		completed := s.completed[:0]
		for ei := 0; ei < nE; ei++ {
			if grown[ei] {
				continue
			}
			e := dg.G.Edge(ei)
			contrib := 0.0
			if cs.active(e.U) {
				contrib += cfg.speed(in, e.ID)
			}
			if cs.active(e.V) {
				contrib += cfg.speed(in, e.ID)
			}
			if contrib == 0 {
				continue
			}
			growth[ei] += contrib
			if growth[ei] >= 1-1e-12 {
				completed = append(completed, ei)
			}
		}
		for _, ei := range completed {
			absorb(ei)
		}
		// Fusions after the scan: clusters meeting in this round merge
		// together (Algorithm 2 line 7).
		for _, ei := range completed {
			e := dg.G.Edge(ei)
			cs.fuse(e.U, e.V)
		}
		s.completed = completed
	}
	s.support = support
	return support, nil
}

// growthRule is a decoder built on growClusters.
type growthRule interface {
	ScratchDecoder
	growth() growthConfig
}

// growthDecoders lists every growth rule the decoders use.
var growthDecoders = []growthRule{UnionFind{}, SurfNet{}, SurfNet{FiniteErasureGrowth: true}}

// FuzzGrowth checks growClusters against scanGrowClusters: the same support,
// in the same order, and the same error. shape picks the code (d from 2 to
// 9, either Core layout) and the graph kind; seed draws the erasures and
// Pauli errors at the pauli (up to 20 %) and erasure (up to 45 %) rates, and
// a non-uniform ErrorProb with entries past both clamps; variant picks
// UnionFind, SurfNet or SurfNet{FiniteErasureGrowth: true}, and step its
// StepSize (0 for the default, else up to 2). Both sides keep one arena
// across inputs, so every input reuses state sized and stamped by inputs of
// other sizes.
func FuzzGrowth(f *testing.F) {
	codes := newFuzzCodes()
	s, oracle := NewScratch(), &scanArena{}
	for variant := uint8(0); variant < 3; variant++ {
		f.Add(uint64(variant), uint8(7), variant, uint8(70), uint8(68), uint8(0))
		f.Add(uint64(variant+3), uint8(2|8|16), variant, uint8(200), uint8(0), uint8(40))
		f.Add(uint64(variant+6), uint8(5|16), variant, uint8(30), uint8(225), uint8(9))
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape, variant, pauli, erasure, step uint8) {
		c := codes.pick(shape)
		kind := surfacecode.ZGraph
		if shape&16 != 0 {
			kind = surfacecode.XGraph
		}
		var rule growthRule = UnionFind{}
		if variant%3 != 0 {
			rule = fuzzSurfNet(variant%3 == 2, step)
		}
		frame, erased, probs := fuzzFrame(rng.New(seed), c.NumData(), pauli, erasure)
		in := Input{Graph: c.Graph(kind), Syndromes: c.Syndrome(kind, frame), Erased: erased, ErrorProb: probs}
		want, wantErr := scanGrowClusters(in, rule.growth(), oracle)
		got, err := growClusters(in, rule.growth(), s)
		if !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("d=%d %v %v %#v: support (%v, %v), full scan (%v, %v)",
				c.Distance(), c.Layout(), kind, rule, got, err, want, wantErr)
		}
	})
}

// fuzzCodes holds the codes the fuzz targets draw from: d from 2 to 9 in
// both Core layouts.
type fuzzCodes map[[2]int]*surfacecode.Code

func newFuzzCodes() fuzzCodes {
	codes := fuzzCodes{}
	for d := 2; d <= 9; d++ {
		for _, l := range []surfacecode.CoreLayout{surfacecode.CoreLShape, surfacecode.CoreDiagonal} {
			codes[[2]int{d, int(l)}] = surfacecode.MustNew(d, l)
		}
	}
	return codes
}

// pick returns the code of distance 2 + shape%8 in the layout bit 3 of shape
// selects.
func (codes fuzzCodes) pick(shape uint8) *surfacecode.Code {
	layout := surfacecode.CoreLShape
	if shape&8 != 0 {
		layout = surfacecode.CoreDiagonal
	}
	return codes[[2]int{2 + int(shape%8), int(layout)}]
}

// fuzzSurfNet returns a SurfNet decoder whose StepSize step picks: 0 for the
// default, else up to 2.
func fuzzSurfNet(finite bool, step uint8) SurfNet {
	sn := SurfNet{FiniteErasureGrowth: finite}
	if step != 0 {
		sn.StepSize = float64(step%64+1) / 32
	}
	return sn
}

// fuzzFrame draws an error frame, an erasure mask and an ErrorProb vector on
// n data qubits from src: erasures at a rate of up to 45 % and Pauli errors
// at up to 20 %, and ErrorProb entries that are 0, past the 0.5 clamp, or up
// to twice the Pauli rate.
func fuzzFrame(src *rng.Source, n int, pauli, erasure uint8) (quantum.Frame, []bool, []float64) {
	p, e := float64(pauli%201)/1000, float64(erasure%226)/500
	mixed := [4]quantum.Pauli{quantum.I, quantum.X, quantum.Y, quantum.Z}
	frame, erased, probs := quantum.NewFrame(n), make([]bool, n), make([]float64, n)
	for q := 0; q < n; q++ {
		switch {
		case src.Bool(e):
			erased[q] = true
			frame[q] = mixed[src.IntN(4)]
		case src.Bool(p):
			frame[q] = mixed[1+src.IntN(3)]
		}
		switch src.IntN(8) {
		case 0:
			probs[q] = 0
		case 1:
			probs[q] = src.Range(0.5, 1)
		default:
			probs[q] = src.Range(0, 2*p)
		}
	}
	return frame, erased, probs
}

// TestGrowthAllocatesNothing pins the scalar Fig 8 loop's steady state: on a
// warm Scratch, a frame decode with each growth decoder allocates nothing.
func TestGrowthAllocatesNothing(t *testing.T) {
	c := surfacecode.MustNew(15, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(c, 0.07, 0.15)
	probs := nm.EdgeErrorProb()
	frame, erased := nm.Sample(rng.New(7))
	for _, dec := range growthDecoders {
		s := NewScratch()
		decode := func() {
			if _, _, err := DecodeFrame(c, dec, frame, erased, probs, nil, s); err != nil {
				t.Fatalf("%#v: %v", dec, err)
			}
		}
		decode()
		if allocs := testing.AllocsPerRun(50, decode); allocs != 0 {
			t.Errorf("%#v: %.1f allocs per frame decode on a warm scratch, want 0", dec, allocs)
		}
	}
}

// TestGrowthScratchAcrossSizes decodes d = 25, 5 and 25 on one Scratch,
// then crosses the stamp's wrap to zero and decodes d = 5 and 25 again.
// Every correction must equal a fresh Scratch's: a record the stamp should
// have retired would show as a stale cluster or growth.
func TestGrowthScratchAcrossSizes(t *testing.T) {
	big, small := surfacecode.MustNew(25, surfacecode.CoreLShape), surfacecode.MustNew(5, surfacecode.CoreDiagonal)
	for _, dec := range growthDecoders {
		s := NewScratch()
		for i, c := range []*surfacecode.Code{big, small, big, small, big} {
			if i == 3 {
				s.grow.stamp = math.MaxUint32
			}
			nm := surfacecode.UniformNoise(c, 0.08, 0.15)
			frame, erased := nm.Sample(rng.New(uint64(i)))
			for _, kind := range []surfacecode.GraphKind{surfacecode.ZGraph, surfacecode.XGraph} {
				in := Input{Graph: c.Graph(kind), Syndromes: c.Syndrome(kind, frame), Erased: erased, ErrorProb: nm.EdgeErrorProb()}
				want, err := dec.DecodeWith(in, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dec.DecodeWith(in, s)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%#v decode %d (d=%d %v): reused scratch gave (%v, %v), fresh scratch %v",
						dec, i, c.Distance(), kind, got, err, want)
				}
			}
		}
		if s.grow.stamp != 4 {
			t.Fatalf("%#v: stamp after the wrap = %d, want 4", dec, s.grow.stamp)
		}
	}
}
