package batch_test

import (
	"fmt"
	"testing"

	"surfnet/internal/batch"
	"surfnet/internal/decoder"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// equivGrid mixes Pauli-dominated, erasure-dominated, pure-erasure, and
// pure-Pauli points so both decode paths (fast peel and scalar fallback) are
// exercised heavily.
var equivGrid = []struct{ p, e float64 }{
	{0.050, 0.15}, // Fig 8 low end
	{0.085, 0.15}, // Fig 8 high end
	{0.005, 0.24}, // erasure-dominated: fast path fires almost always
	{0.000, 0.30}, // pure erasure: fast path must fire on every syndrome
	{0.120, 0.00}, // pure Pauli: every non-empty lane must fall back
}

// TestLaneVsScalarEquivalence is the tentpole property: for every lane of
// every packed batch, the engine's logical-error verdict must equal the
// scalar pipeline's verdict (decoder.DecodeFrame) on the identical error
// realization, unpacked from the engine's own planes.
func TestLaneVsScalarEquivalence(t *testing.T) {
	decs := []decoder.Decoder{decoder.UnionFind{}, decoder.SurfNet{}}
	const batches = 3
	for _, d := range []int{3, 5, 7, 9} {
		code := surfacecode.MustNew(d, surfacecode.CoreLShape)
		for _, pt := range equivGrid {
			nm := surfacecode.UniformNoise(code, pt.p, pt.e)
			probs := nm.EdgeErrorProb()
			for _, dec := range decs {
				eng, err := batch.NewEngine(code, nm, dec)
				if err != nil {
					t.Fatalf("d=%d %s: NewEngine: %v", d, dec.Name(), err)
				}
				root := rng.New(99).Split(fmt.Sprintf("equiv/%s/%d/%v/%v", dec.Name(), d, pt.p, pt.e))
				var frame quantum.Frame
				var erased []bool
				var stats batch.Stats
				for bi := 0; bi < batches; bi++ {
					lanes := batch.Lanes
					if bi == 1 {
						lanes = 17 // partial batch: tail of a trial count
					}
					failed, st, err := eng.Run(root.SplitN("batch", bi), lanes)
					if err != nil {
						t.Fatalf("d=%d %s batch %d: %v", d, dec.Name(), bi, err)
					}
					stats.Add(st)
					if high := failed & ^batch.LaneMask(lanes); high != 0 {
						t.Fatalf("d=%d %s batch %d: verdict bits set above lane %d: %#x", d, dec.Name(), bi, lanes, high)
					}
					for l := 0; l < lanes; l++ {
						frame, erased = eng.Planes().Unpack(l, frame, erased)
						res, _, err := decoder.DecodeFrame(code, dec, frame, erased, probs, nil, nil)
						if err != nil {
							t.Fatalf("d=%d %s batch %d lane %d: scalar oracle: %v", d, dec.Name(), bi, l, err)
						}
						got := failed>>uint(l)&1 == 1
						if got != res.Failed() {
							t.Errorf("d=%d p=%v e=%v %s batch %d lane %d: packed verdict %v, scalar oracle %v",
								d, pt.p, pt.e, dec.Name(), bi, l, got, res.Failed())
						}
					}
				}
				if pt.e > 0 && pt.p == 0 && stats.FallbackLanes != 0 {
					t.Errorf("d=%d %s pure-erasure point took %d fallback lanes; erasure syndromes must always peel",
						d, dec.Name(), stats.FallbackLanes)
				}
				if pt.e == 0 && stats.FastLanes != 0 {
					t.Errorf("d=%d %s pure-Pauli point took %d fast lanes; without erasures nothing is peelable",
						d, dec.Name(), stats.FastLanes)
				}
			}
		}
	}
}

// TestEngineDeterminism pins the stream contract: the same source seed yields
// the same verdict mask, and stats account for every lane on both graphs.
func TestEngineDeterminism(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.06, 0.15)
	run := func() (uint64, batch.Stats) {
		eng, err := batch.NewEngine(code, nm, decoder.SurfNet{})
		if err != nil {
			t.Fatal(err)
		}
		failed, stats, err := eng.Run(rng.New(4242).Split("det"), 50)
		if err != nil {
			t.Fatal(err)
		}
		return failed, stats
	}
	f1, s1 := run()
	f2, s2 := run()
	if f1 != f2 || s1 != s2 {
		t.Fatalf("same stream diverged: %#x/%+v vs %#x/%+v", f1, s1, f2, s2)
	}
	if got := s1.FastLanes + s1.FallbackLanes + s1.EmptyLanes; got != 2*50 {
		t.Fatalf("stats cover %d lane-graph decisions, want %d", got, 2*50)
	}
}

// TestNewEngineRejectsUnsupportedDecoders pins the fast-path safety boundary:
// only decoders that pre-absorb erasures into the initial cluster support may
// share the packed erasure-peeling path.
func TestNewEngineRejectsUnsupportedDecoders(t *testing.T) {
	code := surfacecode.MustNew(3, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.05, 0.15)
	for _, dec := range []decoder.Decoder{
		decoder.SurfNet{FiniteErasureGrowth: true},
		decoder.MWPM{},
	} {
		if _, err := batch.NewEngine(code, nm, dec); err == nil {
			t.Errorf("NewEngine accepted %s (FiniteErasureGrowth=%v)", dec.Name(), dec)
		}
	}
	for _, dec := range []decoder.Decoder{
		decoder.UnionFind{},
		decoder.SurfNet{},
		decoder.SurfNet{StepSize: 0.5},
	} {
		if _, err := batch.NewEngine(code, nm, dec); err != nil {
			t.Errorf("NewEngine rejected %s: %v", dec.Name(), err)
		}
	}
}

// TestEngineRunLaneBounds pins the lane-count validation.
func TestEngineRunLaneBounds(t *testing.T) {
	code := surfacecode.MustNew(3, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.05, 0.15)
	eng, err := batch.NewEngine(code, nm, decoder.UnionFind{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{0, -1, batch.Lanes + 1} {
		if _, _, err := eng.Run(rng.New(1), lanes); err == nil {
			t.Errorf("Run accepted lane count %d", lanes)
		}
	}
}
