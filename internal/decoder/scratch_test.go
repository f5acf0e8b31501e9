package decoder

import (
	"fmt"
	"slices"
	"testing"

	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// TestDecodeFrameWithMatchesAllocatingPath checks that DecodeFrame with one
// reused arena produces byte-identical decode results to the allocating
// path, a fresh arena per call (s == nil), across every decoder, for a long
// stream of random frames. This is the contract the deterministic parallel
// trial engine relies on: a worker's scratch must never leak state between
// trials.
func TestDecodeFrameWithMatchesAllocatingPath(t *testing.T) {
	code := surfacecode.MustNew(7, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.08, 0.15)
	probs := nm.EdgeErrorProb()
	decoders := []Decoder{
		UnionFind{},
		SurfNet{},
		SurfNet{FiniteErasureGrowth: true},
		MWPM{}, // scratch path must match its private-arena decode exactly
	}
	for _, dec := range decoders {
		t.Run(fmt.Sprintf("%s/finite=%v", dec.Name(), dec), func(t *testing.T) {
			src := rng.New(23)
			s := NewScratch()
			for trial := 0; trial < 40; trial++ {
				frame, erased := nm.Sample(src.SplitN("t", trial))
				want, wantStats, err := DecodeFrame(code, dec, frame, erased, probs, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, gotStats, err := DecodeFrame(code, dec, frame, erased, probs, nil, s)
				if err != nil {
					t.Fatal(err)
				}
				if got.LogicalX != want.LogicalX || got.LogicalZ != want.LogicalZ {
					t.Fatalf("trial %d: logical (%v,%v), want (%v,%v)",
						trial, got.LogicalX, got.LogicalZ, want.LogicalX, want.LogicalZ)
				}
				if len(got.Residual) != len(want.Residual) {
					t.Fatalf("trial %d: residual length %d, want %d", trial, len(got.Residual), len(want.Residual))
				}
				for q := range want.Residual {
					if got.Residual[q] != want.Residual[q] {
						t.Fatalf("trial %d: residual diverges at qubit %d", trial, q)
					}
				}
				if gotStats.SyndromeWeight != wantStats.SyndromeWeight ||
					gotStats.CorrectionWeight != wantStats.CorrectionWeight {
					t.Fatalf("trial %d: stats %+v, want %+v", trial, gotStats, wantStats)
				}
			}
		})
	}
}

// FuzzDecodeFrame checks DecodeFrame on one arena reused across inputs
// against a fresh arena per call (s == nil): the same logical verdicts,
// residual frame, FrameStats weights and error. shape picks the code (d from
// 2 to 9, either Core layout), so the arena is resized and restamped by codes
// of other sizes; seed draws the frame, erasures and ErrorProb (see
// fuzzFrame); variant%3 picks UnionFind, SurfNet or MWPM, and for SurfNet
// variant/3 sets FiniteErasureGrowth when odd and step picks the StepSize.
func FuzzDecodeFrame(f *testing.F) {
	codes := newFuzzCodes()
	s := NewScratch()
	f.Add(uint64(1), uint8(7), uint8(0), uint8(70), uint8(68), uint8(0))
	f.Add(uint64(2), uint8(2|8), uint8(4), uint8(200), uint8(120), uint8(40))
	f.Add(uint64(3), uint8(5), uint8(2), uint8(30), uint8(225), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, shape, variant, pauli, erasure, step uint8) {
		c := codes.pick(shape)
		var dec Decoder
		switch variant % 3 {
		case 0:
			dec = UnionFind{}
		case 1:
			dec = fuzzSurfNet(variant/3%2 == 1, step)
		default:
			dec = MWPM{}
		}
		frame, erased, probs := fuzzFrame(rng.New(seed), c.NumData(), pauli, erasure)
		got, gotStats, err := DecodeFrame(c, dec, frame, erased, probs, nil, s)
		want, wantStats, wantErr := DecodeFrame(c, dec, frame, erased, probs, nil, nil)
		if got.LogicalX != want.LogicalX || got.LogicalZ != want.LogicalZ || !slices.Equal(got.Residual, want.Residual) ||
			gotStats.SyndromeWeight != wantStats.SyndromeWeight || gotStats.CorrectionWeight != wantStats.CorrectionWeight ||
			fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("d=%d %v %#v: reused arena gave (%+v, %+v, %v), fresh arena (%+v, %+v, %v)",
				c.Distance(), c.Layout(), dec, got, gotStats, err, want, wantStats, wantErr)
		}
	})
}

// TestDecodeWithNilScratchEqualsDecode pins DecodeWith(in, nil) == Decode.
func TestDecodeWithNilScratchEqualsDecode(t *testing.T) {
	code := surfacecode.MustNew(5, surfacecode.CoreLShape)
	nm := surfacecode.UniformNoise(code, 0.1, 0.1)
	frame, erased := nm.Sample(rng.New(3))
	in := Input{
		Graph:     code.Graph(surfacecode.ZGraph),
		Syndromes: code.Syndrome(surfacecode.ZGraph, frame),
		Erased:    erased,
		ErrorProb: nm.EdgeErrorProb(),
	}
	for _, d := range []ScratchDecoder{UnionFind{}, SurfNet{}} {
		a, err := d.Decode(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.DecodeWith(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %v vs %v", d.Name(), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: corrections diverge: %v vs %v", d.Name(), a, b)
			}
		}
	}
}

// BenchmarkDecodeFrameAllocs compares a frame decode on a fresh arena per
// call (alloc) against one reused arena (scratch); the scratch variant's
// allocs/op should sit near zero in steady state (run with -benchmem).
func BenchmarkDecodeFrameAllocs(b *testing.B) {
	for _, d := range []int{9, 15} {
		code := surfacecode.MustNew(d, surfacecode.CoreLShape)
		nm := surfacecode.UniformNoise(code, 0.07, 0.15)
		probs := nm.EdgeErrorProb()
		for _, dec := range []Decoder{UnionFind{}, SurfNet{}} {
			b.Run(fmt.Sprintf("%s/d=%d/alloc", dec.Name(), d), func(b *testing.B) {
				b.ReportAllocs()
				src := rng.New(99)
				for i := 0; i < b.N; i++ {
					frame, erased := nm.Sample(src.SplitN("t", i))
					if _, _, err := DecodeFrame(code, dec, frame, erased, probs, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/d=%d/scratch", dec.Name(), d), func(b *testing.B) {
				b.ReportAllocs()
				src := rng.New(99)
				s := NewScratch()
				var frame quantum.Frame
				var erased []bool
				for i := 0; i < b.N; i++ {
					frame, erased = nm.SampleInto(src.SplitN("t", i), frame, erased)
					if _, _, err := DecodeFrame(code, dec, frame, erased, probs, nil, s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
