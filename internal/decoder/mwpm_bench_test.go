package decoder

import (
	"fmt"
	"testing"

	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// BenchmarkMWPMDecode compares the dense twin construction against the
// scratch-backed sparse cached path on identical pre-sampled frame streams at
// the Fig. 8 operating point (p = 7%, erasure 15% — so the fingerprint moves
// every frame and the cache refreshes weights and tables in place rather than
// free-riding on a frozen graph). The scratch path measures steady state: its
// arena is grown on every input before the timer starts, so B/op does not
// depend on b.N.
func BenchmarkMWPMDecode(b *testing.B) {
	for _, d := range []int{5, 9} {
		code := surfacecode.MustNew(d, surfacecode.CoreLShape)
		nm := surfacecode.UniformNoise(code, 0.07, 0.15)
		probs := nm.EdgeErrorProb()
		// Pre-sample a fixed stream of decode inputs so both paths measure
		// decoding only.
		src := rng.New(99)
		inputs := make([]Input, 64)
		for i := range inputs {
			frame, erased := nm.Sample(src.SplitN("t", i))
			inputs[i] = Input{
				Graph:     code.Graph(surfacecode.ZGraph),
				Syndromes: code.Syndrome(surfacecode.ZGraph, frame),
				Erased:    erased,
				ErrorProb: probs,
			}
		}
		b.Run(fmt.Sprintf("d=%d/dense", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeDense(inputs[i%len(inputs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("d=%d/scratch", d), func(b *testing.B) {
			b.ReportAllocs()
			s := NewScratch()
			dec := MWPM{}
			for _, in := range inputs {
				if _, err := dec.DecodeWith(in, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeWith(inputs[i%len(inputs)], s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
