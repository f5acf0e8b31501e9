package decoder

import (
	"slices"
	"testing"

	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// TestMWPMCacheMatchesFreshDecodeUnderDrift decodes batches of frames under
// a drifting fidelity vector on one arena: with the content fingerprint as
// the cache key, every frame must equal a decode on a fresh arena under the
// current probabilities, with no signal from the caller that they moved.
func TestMWPMCacheMatchesFreshDecodeUnderDrift(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.07, 0.15)
	base := nm.EdgeErrorProb()
	src := rng.New(11)
	sc := NewScratch()

	probs := make([]float64, len(base))
	for batch := 0; batch < 4; batch++ {
		scale := 1 - 0.15*float64(batch)
		for i, p := range base {
			probs[i] = p * scale
		}
		for trial := 0; trial < 25; trial++ {
			frame, erased := nm.Sample(src)
			got, _, err := DecodeFrame(code, MWPM{}, frame, erased, probs, nil, sc)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := DecodeFrame(code, MWPM{}, frame, erased, probs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.LogicalX != want.LogicalX || got.LogicalZ != want.LogicalZ || !slices.Equal(got.Residual, want.Residual) {
				t.Fatalf("batch %d trial %d: cached decode diverged: got %+v want %+v",
					batch, trial, got, want)
			}
		}
	}
}

// TestMWPMCacheHitsQuietFrames pins what the cache buys on a fixed fidelity
// vector with no erasures: only the first decode per graph rewrites weights,
// and every later frame is a graph-cache hit.
func TestMWPMCacheHitsQuietFrames(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.10, 0) // erasure-free: quiet frames
	probs := nm.EdgeErrorProb()
	src := rng.New(7)
	sc := NewScratch()

	const trials = 40
	for i := 0; i < trials; i++ {
		frame, erased := nm.Sample(src)
		if _, _, err := DecodeFrame(code, MWPM{}, frame, erased, probs, nil, sc); err != nil {
			t.Fatal(err)
		}
	}
	c := sc.mwpm.counters
	if c.graphMisses > 2 {
		t.Fatalf("graph misses = %d, want <= 2 (one weight rewrite per graph)", c.graphMisses)
	}
	if c.graphHits == 0 {
		t.Fatal("no graph-cache hits over quiet frames")
	}
}

// TestMWPMCacheKeysErasures: the erasure set is part of the key, because
// erased qubits are pinned at 0.5. A decode under a different erasure set
// must rewrite the weights, and frames with erasures must equal fresh
// decodes.
func TestMWPMCacheKeysErasures(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.07, 0.25)
	probs := nm.EdgeErrorProb()
	src := rng.New(3)
	sc := NewScratch()
	for trial := 0; trial < 50; trial++ {
		frame, erased := nm.Sample(src)
		got, _, err := DecodeFrame(code, MWPM{}, frame, erased, probs, nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := DecodeFrame(code, MWPM{}, frame, erased, probs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.LogicalX != want.LogicalX || got.LogicalZ != want.LogicalZ || !slices.Equal(got.Residual, want.Residual) {
			t.Fatalf("trial %d: erasure-bearing decode diverged: got %+v want %+v",
				trial, got, want)
		}
	}

	// One syndrome and one fidelity vector under two erasure sets.
	dg := code.Graph(surfacecode.ZGraph)
	in := Input{Graph: dg, Syndromes: []int{0}, Erased: make([]bool, code.NumData()), ErrorProb: probs}
	if _, err := (MWPM{}).DecodeWith(in, sc); err != nil {
		t.Fatal(err)
	}
	before := sc.mwpm.counters.graphMisses
	in.Erased = make([]bool, code.NumData())
	in.Erased[0] = true
	if _, err := (MWPM{}).DecodeWith(in, sc); err != nil {
		t.Fatal(err)
	}
	if sc.mwpm.counters.graphMisses != before+1 {
		t.Fatalf("a new erasure set reused the cached weights: misses %d, want %d",
			sc.mwpm.counters.graphMisses, before+1)
	}
}
