package rng

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// program reads a fuzz call program one byte at a time; bytes past its end
// read 0.
type program struct {
	buf []byte
	pos int
}

func (p *program) done() bool { return p.pos >= len(p.buf) }

func (p *program) next() byte {
	if p.done() {
		p.pos++
		return 0
	}
	b := p.buf[p.pos]
	p.pos++
	return b
}

// boolRates are Bool's probabilities beyond the byte scale: at and past both
// ends of [0, 1], and NaN, which takes a draw and returns false.
var boolRates = []float64{0, -0.25, math.Inf(-1), 1, 1.5, math.Inf(1), math.NaN(), 1e-300, 1 - 1e-16}

// refBool is Bool's contract on the stdlib generator: no draw at a
// degenerate rate, else one Float64 below p.
func refBool(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// newRef returns the stdlib generator a Source rooted at seed wraps.
func newRef(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, mix(seed))) }

// FuzzSourceStream checks that a Source draws exactly the stream of the
// stdlib generator it wraps, rand.New(rand.NewPCG(seed, mix(seed))), on any
// sequence of calls. seed roots the stream; prog is the call program, one
// op a byte, with its operands in the bytes after it: Float64, Uint64, Bool
// (at a byte-scaled rate or one at or past 0 and 1), IntN (a power of two
// or not), Range, Perm, Shuffle, a Split or SplitN child drawn beside an
// untouched parent, a descent into a SplitN child, and a copy of the Source,
// which must share its state.
func FuzzSourceStream(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 7, 2, 200, 3, 0, 6, 3, 1, 9, 4, 20, 200, 5, 17, 6, 33, 7, 2, 8, 1, 4, 9, 0, 3, 10, 0})
	f.Add(uint64(0), []byte{2, 255, 2, 0, 3, 0, 62, 3, 1, 61, 3, 2, 200, 9, 3, 200, 0, 1})
	f.Add(uint64(math.MaxUint64), []byte{5, 0, 6, 1, 6, 2, 4, 0, 255, 10, 2, 1})
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		src, ref := New(seed), newRef(seed)
		p := &program{buf: prog}
		for step := 0; !p.done(); step++ {
			op := p.next() % 11
			fail := func(got, want any) {
				t.Helper()
				t.Fatalf("seed %d step %d op %d: Source drew %v, stdlib %v", seed, step, op, got, want)
			}
			switch op {
			case 0:
				if got, want := src.Float64(), ref.Float64(); got != want {
					fail(got, want)
				}
			case 1:
				if got, want := src.Uint64(), ref.Uint64(); got != want {
					fail(got, want)
				}
			case 2:
				b := p.next()
				rate := float64(b) / 255
				if b%2 == 1 {
					rate = boolRates[int(b/2)%len(boolRates)]
				}
				if got, want := src.Bool(rate), refBool(ref, rate); got != want {
					fail(got, want)
				}
			case 3:
				var n int
				switch kind, k := p.next(), p.next(); kind % 3 {
				case 0:
					n = 1 << (k % 63)
				case 1:
					n = 3 << (k % 62) // never a power of two
				default:
					n = int(k) + 1
				}
				if got, want := src.IntN(n), ref.IntN(n); got != want {
					fail(got, want)
				}
			case 4:
				lo, hi := float64(int8(p.next())), float64(p.next())/8
				if got, want := src.Range(lo, hi), lo+(hi-lo)*ref.Float64(); got != want {
					fail(got, want)
				}
			case 5:
				n := int(p.next() % 40)
				if got, want := src.Perm(n), ref.Perm(n); !slices.Equal(got, want) {
					fail(got, want)
				}
			case 6:
				n := int(p.next() % 40)
				var got, want [][2]int
				src.Shuffle(n, func(i, j int) { got = append(got, [2]int{i, j}) })
				ref.Shuffle(n, func(i, j int) { want = append(want, [2]int{i, j}) })
				if !slices.Equal(got, want) {
					fail(got, want)
				}
			case 7, 8:
				label := string(rune('a' + p.next()%4))
				child := src.Split(label)
				if op == 8 {
					child = src.SplitN(label, int(p.next()))
				}
				cref := newRef(child.Seed())
				if got, want := child.Uint64(), cref.Uint64(); got != want {
					fail(got, want)
				}
				if got, want := child.Float64(), cref.Float64(); got != want {
					fail(got, want)
				}
			case 9:
				src = src.SplitN(string(rune('a'+p.next()%4)), int(p.next()))
				ref = newRef(src.Seed())
			case 10:
				cp := *src
				if got, want := cp.Uint64(), ref.Uint64(); got != want {
					fail(got, want)
				}
				if got, want := cp.IntN(7), ref.IntN(7); got != want {
					fail(got, want)
				}
			}
		}
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: after the program the Source drew %d, stdlib %d", seed, got, want)
		}
	})
}

// TestSplitNAllocs pins a child stream's cost: the Source, its PCG and the
// Rand that wraps the PCG, and nothing for the label hash.
func TestSplitNAllocs(t *testing.T) {
	root := New(3)
	if allocs := testing.AllocsPerRun(100, func() { root.SplitN("t", 12) }); allocs != 3 {
		t.Fatalf("SplitN allocates %.1f objects, want 3", allocs)
	}
}
