// Package surfnet is a from-scratch Go implementation of SurfNet, the
// dual-channel quantum network of "Quantum Network Routing based on Surface
// Code Error Correction" (Hu, Wu, Li — ICDCS 2024).
//
// SurfNet encodes every message into a surface code and splits it into a
// Core part — the qubits critical to the decoder's logical error rate,
// teleported over an entanglement-based channel — and a Support part,
// transmitted directly as photons over a plain channel. Error correction at
// servers along the route keeps accumulated channel noise below the routing
// thresholds.
//
// The package is a facade over the internal subsystems:
//
//   - Codes and noise: NewCode, UniformNoise (internal/surfacecode)
//   - Decoders: NewSurfNetDecoder, NewUnionFindDecoder, NewMWPMDecoder,
//     Decode (internal/decoder, internal/matching)
//   - Topology and scenarios: GenerateNetwork, GenRequests
//     (internal/topology, internal/network)
//   - Routing: Schedule, ScheduleGreedy (internal/routing, internal/lp)
//   - Online execution: Execute (internal/core)
//   - Paper experiments: the Fig6a/Fig6b*/Fig7/Fig8 entry points
//     (internal/experiments)
//
// Everything is deterministic under an explicit seed and uses only the Go
// standard library.
package surfnet

import (
	"surfnet/internal/decoder"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/surfacecode"
)

// Code is a planar surface code with its Core/Support partition.
type Code = surfacecode.Code

// CoreLayout selects the fixed Core-part geometry.
type CoreLayout = surfacecode.CoreLayout

// Core layouts.
const (
	// CoreLShape is the default fixed topology: one Core qubit per
	// internal logical axis along the left and top boundary cuts.
	CoreLShape = surfacecode.CoreLShape
	// CoreDiagonal scatters the Core along two diagonals (ablation).
	CoreDiagonal = surfacecode.CoreDiagonal
)

// NewCode constructs a distance-d planar surface code (d >= 2).
func NewCode(distance int, layout CoreLayout) (*Code, error) {
	return surfacecode.New(distance, layout)
}

// NoiseModel is a per-qubit Pauli + erasure channel.
type NoiseModel = surfacecode.NoiseModel

// UniformNoise builds the Fig. 8 channel: Pauli rate p and erasure rate e
// everywhere, halved on Core qubits.
func UniformNoise(c *Code, pauliRate, erasureRate float64) *NoiseModel {
	return surfacecode.UniformNoise(c, pauliRate, erasureRate)
}

// Decoder corrects one decoding graph of a surface code.
type Decoder = decoder.Decoder

// DecodeResult reports the outcome of decoding both graphs of a code.
type DecodeResult = decoder.Result

// NewSurfNetDecoder returns the SurfNet Decoder (Algorithm 2) with the
// paper's default step size r = 2/3; pass a non-zero stepSize to override.
func NewSurfNetDecoder(stepSize float64) Decoder {
	return decoder.SurfNet{StepSize: stepSize}
}

// NewUnionFindDecoder returns the Union-Find baseline decoder.
func NewUnionFindDecoder() Decoder { return decoder.UnionFind{} }

// NewMWPMDecoder returns the modified minimum-weight perfect-matching
// decoder (Algorithm 1) backed by the built-in blossom solver.
func NewMWPMDecoder() Decoder { return decoder.MWPM{} }

// Decode samples nothing: it corrects the given error frame and erasure mask
// on both graphs of c and reports logical failure. errProb gives the
// per-qubit single-graph error probability the decoder should assume (use
// NoiseModel.EdgeErrorProb for channel-matched priors).
func Decode(c *Code, dec Decoder, frame Frame, erased []bool, errProb []float64) (DecodeResult, error) {
	res, _, err := decoder.DecodeFrame(c, dec, frame, erased, errProb, nil, nil)
	return res, err
}

// Pauli is a single-qubit Pauli operator.
type Pauli = quantum.Pauli

// Pauli operators.
const (
	I = quantum.I
	X = quantum.X
	Z = quantum.Z
	Y = quantum.Y
)

// Frame is a Pauli error frame over a code's data qubits.
type Frame = quantum.Frame

// NewFrame returns an identity frame over n qubits.
func NewFrame(n int) Frame { return quantum.NewFrame(n) }

// Rand is a deterministic, splittable randomness source.
type Rand = rng.Source

// NewRand returns a source rooted at seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }
