package decoder

import (
	"testing"
	"testing/quick"

	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// TestDecodersClearSyndromesQuick is the central decoder invariant as a
// quick property: for any sampled error on any supported distance, every
// decoder's correction clears every syndrome (DecodeFrame errors otherwise)
// and flips only valid data qubits.
func TestDecodersClearSyndromesQuick(t *testing.T) {
	codes := []*surfacecode.Code{
		surfacecode.MustNew(3, surfacecode.CoreLShape),
		surfacecode.MustNew(5, surfacecode.CoreDiagonal),
		surfacecode.MustNew(6, surfacecode.CoreLShape),
	}
	check := func(seed uint64, pick uint8) bool {
		c := codes[int(pick)%len(codes)]
		src := rng.New(seed)
		p := src.Range(0, 0.18)
		e := src.Range(0, 0.3)
		nm := surfacecode.UniformNoise(c, p, e)
		probs := nm.EdgeErrorProb()
		frame, erased := nm.Sample(src.Split("sample"))
		for _, dec := range allDecoders {
			res, _, err := DecodeFrame(c, dec, frame, erased, probs, nil, nil)
			if err != nil {
				t.Logf("%s: %v", dec.Name(), err)
				return false
			}
			if len(res.Residual) != c.NumData() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCorrectionsAreSyndromeDriven checks that decoders return corrections
// whose own syndrome equals the input syndrome: applying the correction to
// an empty frame must reproduce the syndrome pattern it was asked to clear.
func TestCorrectionsAreSyndromeDriven(t *testing.T) {
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(c, 0.1, 0.15)
	probs := nm.EdgeErrorProb()
	src := rng.New(314)
	for trial := 0; trial < 30; trial++ {
		frame, erased := nm.Sample(src.SplitN("t", trial))
		syn := c.Syndrome(surfacecode.ZGraph, frame)
		for _, dec := range allDecoders {
			corr, err := dec.Decode(Input{
				Graph:     c.Graph(surfacecode.ZGraph),
				Syndromes: syn,
				Erased:    erased,
				ErrorProb: probs,
			})
			if err != nil {
				t.Fatalf("%s: %v", dec.Name(), err)
			}
			// The correction alone must produce the same syndrome.
			cf := quantum.NewFrame(c.NumData())
			for _, q := range corr {
				cf.Apply(q, quantum.X)
			}
			got := c.Syndrome(surfacecode.ZGraph, cf)
			if !equalIntSets(got, syn) {
				t.Fatalf("%s trial %d: correction syndrome mismatch", dec.Name(), trial)
			}
		}
	}
}

// TestDecodersIgnoreUnrelatedGraph checks that a pure-Z error produces no
// correction on the Z-graph (no syndromes there) for every decoder.
func TestDecodersIgnoreUnrelatedGraph(t *testing.T) {
	c := surfacecode.MustNew(4, surfacecode.CoreLShape)
	f := quantum.NewFrame(c.NumData())
	f[3] = quantum.Z
	f[7] = quantum.Z
	probs := make([]float64, c.NumData())
	for i := range probs {
		probs[i] = 0.05
	}
	erased := make([]bool, c.NumData())
	for _, dec := range allDecoders {
		corr, err := dec.Decode(Input{
			Graph:     c.Graph(surfacecode.ZGraph),
			Syndromes: c.Syndrome(surfacecode.ZGraph, f),
			Erased:    erased,
			ErrorProb: probs,
		})
		if err != nil {
			t.Fatalf("%s: %v", dec.Name(), err)
		}
		if len(corr) != 0 {
			t.Errorf("%s: corrected %v for a Z-only error on the Z-graph", dec.Name(), corr)
		}
	}
}

// TestMWPMNeverWorseThanUF is a statistical sanity property at the Fig. 8
// operating point: exact matching should not lose badly to union-find.
func TestMWPMNeverWorseThanUF(t *testing.T) {
	c := surfacecode.MustNew(7, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(c, 0.07, 0.15)
	probs := nm.EdgeErrorProb()
	src := rng.New(2718)
	fails := map[string]int{}
	const trials = 600
	for i := 0; i < trials; i++ {
		frame, erased := nm.Sample(src.SplitN("t", i))
		for _, dec := range []Decoder{MWPM{}, UnionFind{}} {
			res, _, err := DecodeFrame(c, dec, frame, erased, probs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				fails[dec.Name()]++
			}
		}
	}
	// Generous margin: MWPM may tie but not lose by more than 25%
	// relative.
	if float64(fails["mwpm"]) > 1.25*float64(fails["union-find"])+5 {
		t.Errorf("mwpm failed %d vs union-find %d", fails["mwpm"], fails["union-find"])
	}
}

// equalIntSets reports multiset-free set equality.
func equalIntSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]bool{}
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		if !m[v] {
			return false
		}
	}
	return true
}
