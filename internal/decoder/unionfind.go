package decoder

import (
	"surfnet/internal/quantum"
)

// UnionFind is the baseline decoder of Delfosse–Nickerson [32] as used in the
// paper's Fig. 8 comparison: erased edges seed the initial cluster support,
// odd clusters grow uniformly by half an edge per round regardless of qubit
// fidelity, and the peeling decoder extracts the correction.
type UnionFind struct{}

// Compile-time interface checks.
var (
	_ Decoder        = UnionFind{}
	_ ScratchDecoder = UnionFind{}
)

// Name implements Decoder.
func (UnionFind) Name() string { return "union-find" }

// Decode implements Decoder.
func (d UnionFind) Decode(in Input) ([]int, error) { return d.DecodeWith(in, nil) }

// DecodeWith implements ScratchDecoder.
func (d UnionFind) DecodeWith(in Input, s *Scratch) ([]int, error) {
	if s == nil {
		s = NewScratch()
	}
	return growAndPeel(in, d.growth(), s)
}

// growth returns the baseline's growth rule: every qubit grows at half an
// edge per round, and erasures are pre-grown.
func (UnionFind) growth() growthConfig {
	return growthConfig{
		speed:           func(Input, int) float64 { return 0.5 },
		preGrowErasures: true,
	}
}

// growAndPeel is the body of UnionFind.DecodeWith and SurfNet.DecodeWith,
// which differ only in their growth rule: cluster growth under cfg, then
// peeling of the grown support.
func growAndPeel(in Input, cfg growthConfig, s *Scratch) ([]int, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	// No syndromes means the correction is provably empty regardless of
	// erasures: pre-grown erasure clusters all have even (zero) parity, so
	// growth never starts and peeling emits nothing.
	if len(in.Syndromes) == 0 {
		return nil, nil
	}
	support, err := growClusters(in, cfg, s)
	if err != nil {
		return nil, err
	}
	return peel(in, support, s)
}

// SurfNet is the SurfNet Decoder of Algorithm 2: cluster growth at
// fidelity-dependent speeds -r/ln(1-rho) so that decoding paths prefer
// erasures first, then the noisier Support qubits, and cross the high-quality
// Core qubits only when forced. StepSize is the decoder step size r; the
// paper's default 2/3 balances decoding speed and accuracy.
//
// Erasure handling: Algorithm 2 maximizes the growth speed at erasures; by
// default this implementation takes that to its limit and absorbs known
// erasures into the initial cluster support (the same erasure initialization
// as the Union-Find baseline), so the decoders differ exactly in how they
// grow across non-erased qubits. Set FiniteErasureGrowth for the literal
// finite-speed reading of Algorithm 2 line 5.
type SurfNet struct {
	// StepSize is the decoder step size r; zero selects DefaultStepSize.
	StepSize float64
	// FiniteErasureGrowth grows erasures at -r/ln(1-0.5) edges per round
	// instead of pre-absorbing them.
	FiniteErasureGrowth bool
}

// DefaultStepSize is the paper's default decoder step size r = 2/3.
const DefaultStepSize = 2.0 / 3.0

// Compile-time interface checks.
var (
	_ Decoder        = SurfNet{}
	_ ScratchDecoder = SurfNet{}
)

// Name implements Decoder.
func (SurfNet) Name() string { return "surfnet" }

// Decode implements Decoder.
func (d SurfNet) Decode(in Input) ([]int, error) { return d.DecodeWith(in, nil) }

// DecodeWith implements ScratchDecoder.
func (d SurfNet) DecodeWith(in Input, s *Scratch) ([]int, error) {
	if s == nil {
		s = NewScratch()
	}
	return growAndPeel(in, d.growth(), s)
}

// growth returns Algorithm 2's growth rule: qubit q grows at -r/ln(1-rho_q)
// edges per round.
func (d SurfNet) growth() growthConfig {
	r := d.StepSize
	if r == 0 {
		r = DefaultStepSize
	}
	return growthConfig{
		speed: func(in Input, q int) float64 {
			return quantum.GrowthSpeed(1-qubitErrProb(in, q), r)
		},
		preGrowErasures: !d.FiniteErasureGrowth,
	}
}
