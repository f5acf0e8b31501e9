package decoder

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// corrWeight sums the decoding weights of a correction's qubits.
func corrWeight(in Input, corr []int) float64 {
	w := 0.0
	for _, q := range corr {
		w += qubitWeight(in, q)
	}
	return w
}

// logicalAfter applies corr to frame as op-type flips and reports the
// logical-error verdict on kind's graph.
func logicalAfter(c *surfacecode.Code, kind surfacecode.GraphKind, frame quantum.Frame, corr []int, op quantum.Pauli) bool {
	f := frame.Clone()
	for _, q := range corr {
		f.Apply(q, op)
	}
	return c.HasLogicalError(kind, f)
}

// TestSparseDenseEquivalence is the tentpole property: the sparse cached
// construction must return corrections with identical logical effect to the
// dense twin construction — and identical matching totals — across seeds,
// distances, and erasure mixes. All randomness is pinned by fixed seeds so
// the assertions are deterministic.
//
// One caveat keeps the property honest: uniform error rates and 0.5-pinned
// erasures make weights integer multiples of a few units, so distinct
// minimum-weight corrections can tie exactly, and equally-minimal matchings
// may differ by a logical operator. That is degeneracy of the MWPM optimum
// itself, not a construction difference, so when the logical effects diverge
// the test requires the two corrections to carry exactly equal weight (a
// certified tie) — and requires divergence to stay rare. The strict
// correction-for-correction identity is asserted on generic continuous
// weights in TestSparseDenseIdenticalOnGenericWeights, where the optimum is
// unique.
func TestSparseDenseEquivalence(t *testing.T) {
	type mix struct {
		p, erasure float64
	}
	mixes := []mix{{0.08, 0}, {0.07, 0.15}, {0.05, 0.4}}
	for _, d := range []int{3, 5, 7} {
		code := surfacecode.MustNew(d, surfacecode.CoreLShape)
		for mi, m := range mixes {
			t.Run(fmt.Sprintf("d=%d/p=%v/e=%v", d, m.p, m.erasure), func(t *testing.T) {
				nm := surfacecode.UniformNoise(code, m.p, m.erasure)
				probs := nm.EdgeErrorProb()
				src := rng.New(uint64(1000*d + mi))
				s := NewScratch() // one arena across all trials: exercises the cache
				decodes, tied := 0, 0
				for trial := 0; trial < 40; trial++ {
					frame, erased := nm.Sample(src.SplitN("t", trial))
					for _, kind := range []surfacecode.GraphKind{surfacecode.ZGraph, surfacecode.XGraph} {
						in := Input{
							Graph:     code.Graph(kind),
							Syndromes: code.Syndrome(kind, frame),
							Erased:    erased,
							ErrorProb: probs,
						}
						dCorr, dTotal, err := decodeDense(in)
						if err != nil {
							t.Fatalf("trial %d dense: %v", trial, err)
						}
						if s.mwpm == nil {
							s.mwpm = newMWPMScratch()
						}
						sCorr, sTotal, err := s.mwpm.decode(in)
						if err != nil {
							t.Fatalf("trial %d sparse: %v", trial, err)
						}
						// Identical optimum (1e-6 covers the 1e-9 integer
						// scaling of the blossom solver).
						if math.Abs(dTotal-sTotal) > 1e-6 {
							t.Fatalf("trial %d kind %v: sparse total %v, dense total %v",
								trial, kind, sTotal, dTotal)
						}
						// Both corrections clear exactly the input syndrome.
						op := quantum.X
						if kind == surfacecode.XGraph {
							op = quantum.Z
						}
						for name, corr := range map[string][]int{"dense": dCorr, "sparse": sCorr} {
							cf := quantum.NewFrame(code.NumData())
							for _, q := range corr {
								cf.Apply(q, op)
							}
							if got := code.Syndrome(kind, cf); !equalIntSets(got, in.Syndromes) {
								t.Fatalf("trial %d kind %v: %s correction syndrome mismatch", trial, kind, name)
							}
						}
						// Identical logical effect on the sampled frame —
						// except on certified exact-weight ties.
						decodes++
						if dl, sl := logicalAfter(code, kind, frame, dCorr, op), logicalAfter(code, kind, frame, sCorr, op); dl != sl {
							dw, sw := corrWeight(in, dCorr), corrWeight(in, sCorr)
							if math.Abs(dw-sw) > 1e-6 {
								t.Fatalf("trial %d kind %v: logical effect dense=%v sparse=%v with unequal weights %v vs %v",
									trial, kind, dl, sl, dw, sw)
							}
							tied++
						}
					}
				}
				if tied*10 > decodes {
					t.Fatalf("logical-effect divergence on %d/%d decodes: ties should be rare", tied, decodes)
				}
			})
		}
	}
}

// TestSparseDenseIdenticalOnGenericWeights draws continuous per-qubit error
// probabilities (no erasures), where the minimum matching and all shortest
// paths are unique up to measure zero, and requires the two constructions to
// return the exact same correction set.
func TestSparseDenseIdenticalOnGenericWeights(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		code := surfacecode.MustNew(d, surfacecode.CoreLShape)
		src := rng.New(uint64(31 * d))
		nm := surfacecode.UniformNoise(code, 0.08, 0)
		s := NewScratch()
		for trial := 0; trial < 25; trial++ {
			probs := make([]float64, code.NumData())
			psrc := src.SplitN("p", trial)
			for q := range probs {
				probs[q] = psrc.Range(0.01, 0.3)
			}
			frame, erased := nm.Sample(src.SplitN("t", trial))
			for _, kind := range []surfacecode.GraphKind{surfacecode.ZGraph, surfacecode.XGraph} {
				in := Input{
					Graph:     code.Graph(kind),
					Syndromes: code.Syndrome(kind, frame),
					Erased:    erased,
					ErrorProb: probs,
				}
				dCorr, _, err := decodeDense(in)
				if err != nil {
					t.Fatal(err)
				}
				sCorr, err := MWPM{}.DecodeWith(in, s)
				if err != nil {
					t.Fatal(err)
				}
				ds := append([]int(nil), dCorr...)
				ss := append([]int(nil), sCorr...)
				sort.Ints(ds)
				sort.Ints(ss)
				if len(ds) != len(ss) {
					t.Fatalf("d=%d trial %d kind %v: dense %v, sparse %v", d, trial, kind, ds, ss)
				}
				for i := range ds {
					if ds[i] != ss[i] {
						t.Fatalf("d=%d trial %d kind %v: dense %v, sparse %v", d, trial, kind, ds, ss)
					}
				}
			}
		}
	}
}

// TestMWPMCacheInvalidation drives one scratch through repeated decodes and
// checks the fingerprint cache: stable fidelities hit, drifted fidelities
// miss and still decode correctly, and returning to earlier fidelities
// re-fingerprints (the cache keeps only the last vector per graph).
func TestMWPMCacheInvalidation(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.1, 0)
	base := nm.EdgeErrorProb()
	drift := append([]float64(nil), base...)
	for q := range drift {
		drift[q] = math.Min(0.4, drift[q]*(1.2+0.01*float64(q%7)))
	}
	erased := make([]bool, code.NumData())
	src := rng.New(77)
	frame, _ := nm.Sample(src)
	in := func(probs []float64) Input {
		return Input{
			Graph:     code.Graph(surfacecode.ZGraph),
			Syndromes: code.Syndrome(surfacecode.ZGraph, frame),
			Erased:    erased,
			ErrorProb: probs,
		}
	}
	s := NewScratch()
	decode := func(probs []float64) []int {
		corr, err := MWPM{}.DecodeWith(in(probs), s)
		if err != nil {
			t.Fatal(err)
		}
		return append([]int(nil), corr...)
	}
	wantBase := decode(base)
	c := s.mwpm.counters
	if c.graphMisses != 1 || c.graphHits != 0 {
		t.Fatalf("first decode: %+v, want one graph miss", c)
	}
	if c.spMisses == 0 || c.spHits != 0 {
		t.Fatalf("first decode: %+v, want only Dijkstra misses", c)
	}
	decode(base)
	c = s.mwpm.counters
	if c.graphMisses != 1 || c.graphHits != 1 {
		t.Fatalf("repeat decode: %+v, want a graph hit", c)
	}
	if c.spHits == 0 {
		t.Fatalf("repeat decode: %+v, want Dijkstra hits", c)
	}
	// Fidelity drift: fingerprint moves, weights and tables refresh, and the
	// result matches a fresh arena exactly.
	gotDrift := decode(drift)
	c = s.mwpm.counters
	if c.graphMisses != 2 {
		t.Fatalf("drifted decode: %+v, want a second graph miss", c)
	}
	freshDrift, err := MWPM{}.Decode(in(drift))
	if err != nil {
		t.Fatal(err)
	}
	if !equalIntSets(gotDrift, freshDrift) {
		t.Fatalf("drifted decode via cache %v, fresh %v", gotDrift, freshDrift)
	}
	// And back: invalidation again, same correction as the first pass.
	gotBase := decode(base)
	if !equalIntSets(gotBase, wantBase) {
		t.Fatalf("post-drift decode %v, want %v", gotBase, wantBase)
	}
	if c = s.mwpm.counters; c.graphMisses != 3 {
		t.Fatalf("return decode: %+v, want a third graph miss", c)
	}
}

// TestMWPMCacheKeepsBothGraphEntries checks the per-graph cache map: a frame
// decode touches the Z- and X-graph alternately and the second frame must
// hit on both entries rather than thrash a single slot.
func TestMWPMCacheKeepsBothGraphEntries(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.1, 0)
	probs := nm.EdgeErrorProb()
	src := rng.New(13)
	s := NewScratch()
	frame, erased := nm.Sample(src)
	if _, _, err := DecodeFrame(code, MWPM{}, frame, erased, probs, nil, s); err != nil {
		t.Fatal(err)
	}
	if c := s.mwpm.counters; c.graphMisses != 2 || c.graphHits != 0 {
		t.Fatalf("first frame: %+v, want misses on both graphs", c)
	}
	frame2, erased2 := nm.Sample(src)
	if _, _, err := DecodeFrame(code, MWPM{}, frame2, erased2, probs, nil, s); err != nil {
		t.Fatal(err)
	}
	if c := s.mwpm.counters; c.graphMisses != 2 || c.graphHits != 2 {
		t.Fatalf("second frame: %+v, want hits on both graphs", c)
	}
}

// TestMWPMBoundaryTieSymmetric pins the boundary tie rule (satellite: the
// edge-weight and path-expansion steps must pick the same boundary). Under
// uniform weights, even-distance layouts have a midline of syndrome vertices
// exactly equidistant from both virtual boundaries; a lone syndrome there
// must be routed to BoundaryA by both the sparse and dense constructions,
// and the applied correction must carry exactly the priced weight.
func TestMWPMBoundaryTieSymmetric(t *testing.T) {
	code := surfacecode.MustNew(6, surfacecode.CoreLShape)
	probs := make([]float64, code.NumData())
	for q := range probs {
		probs[q] = 0.1
	}
	erased := make([]bool, code.NumData())
	for _, kind := range []surfacecode.GraphKind{surfacecode.ZGraph, surfacecode.XGraph} {
		dg := code.Graph(kind)
		in := Input{Graph: dg, Erased: erased, ErrorProb: probs}
		// Find every vertex with an exact two-boundary tie.
		ms := newMWPMScratch()
		ent := ms.entryFor(in)
		var ties []int
		for v := 0; v < dg.NumReal; v++ {
			sp := ms.table(ent, v)
			if sp.Dist[dg.BoundaryA()] == sp.Dist[dg.BoundaryB()] {
				ties = append(ties, v)
			}
		}
		if len(ties) == 0 {
			t.Fatalf("kind %v: no boundary-tied vertex in the symmetric layout", kind)
		}
		for _, v := range ties {
			in.Syndromes = []int{v}
			sp := ms.table(ent, v)
			target, dist := nearestBoundary(sp, dg)
			if target != dg.BoundaryA() {
				t.Fatalf("kind %v vertex %d: tie resolved to %d, want BoundaryA=%d",
					kind, v, target, dg.BoundaryA())
			}
			for name, decode := range map[string]func() ([]int, float64, error){
				"sparse": func() ([]int, float64, error) { return ms.decode(in) },
				"dense":  func() ([]int, float64, error) { return decodeDense(in) },
			} {
				corr, _, err := decode()
				if err != nil {
					t.Fatalf("kind %v vertex %d %s: %v", kind, v, name, err)
				}
				// Expansion must use the same boundary it was priced at:
				// the path weight equals the tied distance, and the path
				// terminates at BoundaryA, never BoundaryB.
				if w := corrWeight(in, corr); math.Abs(w-dist) > 1e-9 {
					t.Fatalf("kind %v vertex %d %s: correction weight %v, priced %v",
						kind, v, name, w, dist)
				}
				touchA, touchB := false, false
				for _, q := range corr {
					e := dg.G.Edge(q)
					if e.U == dg.BoundaryA() || e.V == dg.BoundaryA() {
						touchA = true
					}
					if e.U == dg.BoundaryB() || e.V == dg.BoundaryB() {
						touchB = true
					}
				}
				if !touchA || touchB {
					t.Fatalf("kind %v vertex %d %s: path touches A=%v B=%v, want A only",
						kind, v, name, touchA, touchB)
				}
			}
		}
	}
}
