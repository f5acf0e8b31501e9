package decoder

import (
	"errors"
	"strings"
	"testing"

	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// TestEmptySyndromeShortCircuit is the regression test for the aligned
// empty-syndrome fast paths: on a syndrome-free frame that still contains
// erasures, both cluster-growth decoders must return an empty correction
// WITHOUT invoking growClusters (or peeling). The scratch arena proves the
// negative: growClusters sizes its vertex table s.grow.v and peel its vertex
// table s.peel.v on first use, so both must stay nil after the decode.
func TestEmptySyndromeShortCircuit(t *testing.T) {
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	dg := c.Graph(surfacecode.ZGraph)
	n := c.NumData()
	erased := make([]bool, n)
	// A generous spread of erasures; with no syndromes the correction is
	// provably empty regardless.
	for q := 0; q < n; q += 3 {
		erased[q] = true
	}
	probs := make([]float64, n)
	for q := range probs {
		probs[q] = 0.07
	}
	for _, dec := range []ScratchDecoder{UnionFind{}, SurfNet{}, SurfNet{FiniteErasureGrowth: true}} {
		s := NewScratch()
		corr, err := dec.DecodeWith(Input{
			Graph:     dg,
			Syndromes: nil,
			Erased:    erased,
			ErrorProb: probs,
		}, s)
		if err != nil {
			t.Fatalf("%s: %v", dec.Name(), err)
		}
		if len(corr) != 0 {
			t.Errorf("%s returned a %d-qubit correction on a syndrome-free frame", dec.Name(), len(corr))
		}
		if s.grow.v != nil {
			t.Errorf("%s invoked cluster growth on a syndrome-free frame", dec.Name())
		}
		if s.peel.v != nil {
			t.Errorf("%s invoked peeling on a syndrome-free frame", dec.Name())
		}
	}
}

// randomErasureInput samples a pure-erasure decoding problem: a random
// erasure mask, errors only on erased qubits, and the resulting syndromes.
// Pure-erasure errors always satisfy the cluster invariant on the erased
// support (each erased qubit's error flips parities inside its own
// component), so peeling the support must always succeed.
func randomErasureInput(c *surfacecode.Code, kind surfacecode.GraphKind, e float64, src *rng.Source) (Input, []int, quantum.Frame) {
	n := c.NumData()
	frame := quantum.NewFrame(n)
	erased := make([]bool, n)
	mixed := [4]quantum.Pauli{quantum.I, quantum.X, quantum.Y, quantum.Z}
	var support []int
	for q := 0; q < n; q++ {
		if src.Bool(e) {
			erased[q] = true
			frame[q] = mixed[src.IntN(4)]
			support = append(support, q) // dense edge index == qubit id
		}
	}
	probs := make([]float64, n)
	for q := range probs {
		probs[q] = 0.05
	}
	in := Input{
		Graph:     c.Graph(kind),
		Syndromes: c.Syndrome(kind, frame),
		Erased:    erased,
		ErrorProb: probs,
	}
	return in, support, frame
}

// TestPeelRandomErasureSupports drives peel through randomly generated
// erasure supports: it must succeed on every pure-erasure input, and the
// correction must exactly clear the syndromes. Components with odd parity
// that touch a boundary only peel cleanly when their tree is rooted at the
// boundary, so success across random supports also exercises the
// boundary-rooted tree preference.
func TestPeelRandomErasureSupports(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		c := surfacecode.MustNew(d, surfacecode.CoreLShape)
		for _, e := range []float64{0.05, 0.2, 0.45} {
			src := rng.New(uint64(d*1000) + uint64(e*100)).Split("peel-prop")
			for trial := 0; trial < 40; trial++ {
				for _, kind := range []surfacecode.GraphKind{surfacecode.ZGraph, surfacecode.XGraph} {
					in, support, frame := randomErasureInput(c, kind, e, src.SplitN("t", trial))
					corr, err := PeelErasure(in, support, nil)
					if err != nil {
						t.Fatalf("d=%d e=%v %v trial %d: %v", d, e, kind, trial, err)
					}
					// The correction must flip only erased qubits and clear
					// the syndrome exactly.
					op := quantum.X
					if kind == surfacecode.XGraph {
						op = quantum.Z
					}
					for _, q := range corr {
						if !in.Erased[q] {
							t.Fatalf("d=%d %v trial %d: correction flips intact qubit %d", d, kind, trial, q)
						}
						frame.Apply(q, op)
					}
					if left := c.Syndrome(kind, frame); len(left) != 0 {
						t.Fatalf("d=%d e=%v %v trial %d: %d syndromes left after peeling", d, e, kind, trial, len(left))
					}
				}
			}
		}
	}
}

// TestPeelClusterInvariantViolation drives peel's error path through
// randomly generated invariant-violating supports: a syndrome whose vertex
// is outside every support component must surface ErrClusterInvariant.
func TestPeelClusterInvariantViolation(t *testing.T) {
	c := surfacecode.MustNew(5, surfacecode.CoreLShape)
	src := rng.New(31).Split("invariant")
	for trial := 0; trial < 60; trial++ {
		tsrc := src.SplitN("t", trial)
		in, support, _ := randomErasureInput(c, surfacecode.ZGraph, 0.15, tsrc)
		// Inject a lone syndrome at a vertex not covered by the support:
		// its singleton component is odd without boundary contact.
		dg := in.Graph
		inSupport := make([]bool, dg.G.NumVertices())
		for _, ei := range support {
			e := dg.G.Edge(ei)
			inSupport[e.U], inSupport[e.V] = true, true
		}
		lone := -1
		start := tsrc.IntN(dg.NumReal)
		for off := 0; off < dg.NumReal; off++ {
			v := (start + off) % dg.NumReal
			if !inSupport[v] {
				lone = v
				break
			}
		}
		if lone < 0 {
			continue // support covers every vertex; try another trial
		}
		syn := append([]int{}, in.Syndromes...)
		already := false
		for _, v := range syn {
			if v == lone {
				already = true
			}
		}
		if already {
			continue
		}
		syn = append(syn, lone)
		in.Syndromes = syn
		_, err := PeelErasure(in, support, nil)
		if err == nil {
			t.Fatalf("trial %d: peel accepted an invariant-violating support (lone syndrome at %d)", trial, lone)
		}
		if !errors.Is(err, ErrClusterInvariant) {
			t.Fatalf("trial %d: error does not wrap ErrClusterInvariant: %v", trial, err)
		}
		if !strings.Contains(err.Error(), "cluster invariant") {
			t.Fatalf("trial %d: error message lost the invariant diagnosis: %v", trial, err)
		}
	}
}

// TestPeelErasureEmptySyndromes pins the wrapper's own short-circuit.
func TestPeelErasureEmptySyndromes(t *testing.T) {
	c := surfacecode.MustNew(3, surfacecode.CoreLShape)
	in, support, _ := randomErasureInput(c, surfacecode.ZGraph, 0.3, rng.New(8))
	in.Syndromes = nil
	corr, err := PeelErasure(in, support, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != 0 {
		t.Fatalf("empty-syndrome peel returned %d flips", len(corr))
	}
}
