// Package decoder implements the error-correction decoders of the paper:
// the modified minimum-weight perfect-matching decoder (Algorithm 1), the
// Union-Find baseline decoder of Delfosse–Nickerson, and the SurfNet Decoder
// (Algorithm 2) with its fidelity-weighted cluster growth, all sharing the
// peeling decoder of Delfosse–Zémor for the final correction extraction.
//
// A Decoder works on one decoding graph at a time (the Z-graph for X-type
// errors or the X-graph for Z-type errors). DecodeFrame runs a decoder on
// both graphs of a code and reports whether the corrected state carries a
// logical error, which is the quantity the paper's Fig. 8 plots.
package decoder

import (
	"errors"
	"fmt"
	"math"
	"time"

	"surfnet/internal/quantum"
	"surfnet/internal/surfacecode"
	"surfnet/internal/telemetry"
)

// ErrInvalidInput is returned when a decoding input is malformed.
var ErrInvalidInput = errors.New("decoder: invalid input")

// Input is one decoding problem: the observed syndromes on a decoding graph
// together with the channel-side information SurfNet maintains — erasure
// locations and per-qubit estimated error probabilities (§IV-C: "estimated
// data qubit fidelity").
type Input struct {
	// Graph is the decoding graph being corrected.
	Graph *surfacecode.DecodingGraph
	// Syndromes lists the real measurement vertices with flipped parity.
	Syndromes []int
	// Erased marks, per data qubit, the known erasure locations. Erased
	// qubits are treated as maximally mixed (estimated fidelity 0.5).
	Erased []bool
	// ErrorProb gives, per data qubit, the estimated probability that the
	// qubit carries an error visible on this graph, for non-erased
	// qubits. Decoders convert it to weights w = -ln(p) and growth
	// speeds -r/ln(1-rho).
	ErrorProb []float64
}

// validate checks structural consistency of the input.
func (in *Input) validate() error {
	if in.Graph == nil {
		return fmt.Errorf("%w: nil graph", ErrInvalidInput)
	}
	n := in.Graph.G.NumEdges()
	if len(in.Erased) != n || len(in.ErrorProb) != n {
		return fmt.Errorf("%w: side info covers %d/%d qubits, graph has %d edges",
			ErrInvalidInput, len(in.Erased), len(in.ErrorProb), n)
	}
	for _, s := range in.Syndromes {
		if s < 0 || s >= in.Graph.NumReal {
			return fmt.Errorf("%w: syndrome vertex %d outside real range [0,%d)",
				ErrInvalidInput, s, in.Graph.NumReal)
		}
	}
	return nil
}

// Decoder is a surface-code decoder for a single decoding graph.
type Decoder interface {
	// Name identifies the decoder in experiment output.
	Name() string
	// Decode returns the estimated error pattern as a set of data-qubit
	// indices whose flip clears all syndromes.
	Decode(in Input) ([]int, error)
}

// ScratchDecoder is a Decoder that can decode on a caller-owned arena,
// reusing its buffers instead of allocating per call. The returned
// correction aliases the scratch and is valid until the next DecodeWith with
// the same Scratch; a nil Scratch must behave exactly like Decode.
type ScratchDecoder interface {
	Decoder
	DecodeWith(in Input, s *Scratch) ([]int, error)
}

// Probability clamps for weight computation: a zero probability would give
// infinite weight (and zero growth speed), stalling cluster growth; a
// probability at or above 1/2 would give non-positive weight.
const (
	minErrorProb = 1e-12
	maxErrorProb = 0.5
)

// qubitWeight returns the decoding weight of data qubit q under the input's
// side information: w = -ln(p_err), with known erasures pinned at
// p_err = 1 - ErasureFidelity = 0.5 (§IV-C).
func qubitWeight(in Input, q int) float64 {
	return -math.Log(qubitErrProb(&in, q))
}

// qubitErrProb returns the clamped estimated error probability of qubit q.
// It takes in by pointer, so a call in a loop copies no Input.
func qubitErrProb(in *Input, q int) float64 {
	p := in.ErrorProb[q]
	if in.Erased[q] {
		p = 1 - quantum.ErasureFidelity
	}
	if p < minErrorProb {
		p = minErrorProb
	}
	if p > maxErrorProb {
		p = maxErrorProb
	}
	return p
}

// Result is the outcome of decoding both graphs of a code.
type Result struct {
	// LogicalX reports a logical X failure (X-graph class flip is
	// LogicalZ; the names follow the operator that ends up applied).
	LogicalX bool
	// LogicalZ reports a logical Z failure.
	LogicalZ bool
	// Residual is the post-correction frame (error composed with both
	// corrections); its syndrome is empty on both graphs.
	Residual quantum.Frame
}

// Failed reports whether either logical operator was corrupted — the event
// counted by the paper's logical error rate.
func (r Result) Failed() bool { return r.LogicalX || r.LogicalZ }

// FrameStats reports the observable work of one DecodeFrame call, summed
// over both decoding graphs.
type FrameStats struct {
	// SyndromeWeight is the number of flipped syndrome measurements
	// handed to the decoder.
	SyndromeWeight int
	// CorrectionWeight is the number of data-qubit flips the decoder
	// applied.
	CorrectionWeight int
	// Elapsed is the wall time of both graph decodes.
	Elapsed time.Duration
}

// DecodeFrame runs dec on both decoding graphs of code c for the sampled
// error frame and erasure mask, applies the corrections, and reports logical
// failure and the call's FrameStats. errProb gives the per-qubit estimated
// single-graph error probability (see surfacecode.NoiseModel.EdgeErrorProb).
// A frame that does not cover exactly the code's data qubits is an
// ErrInvalidInput.
//
// One surfacecode.Code.SyndromesInto pass gives both graphs' syndromes of
// the frame, and a second one, of the residual, checks that the
// corrections cleared them. Every buffer of the call (residual frame,
// syndrome lists, and the cluster-growth, peeling and MWPM state of
// ScratchDecoders) comes from the arena s, so steady-state decoding on a
// reused arena allocates nothing; a nil s decodes on a fresh arena.
// Result.Residual aliases the arena and is valid only until the next call
// with the same Scratch. Decoders that do not implement ScratchDecoder fall
// back to Decode.
//
// When reg is non-nil the call is recorded under the decoder's name: a
// "decoder.<name>.decodes" invocation counter, "decode_seconds",
// "syndrome_weight" and "correction_weight" histograms, a "logical_failures"
// counter, and the MWPM cache's hit and miss counts. A nil registry records
// nothing.
func DecodeFrame(c *surfacecode.Code, dec Decoder, frame quantum.Frame, erased []bool, errProb []float64, reg *telemetry.Registry, s *Scratch) (Result, FrameStats, error) {
	start := time.Now()
	if len(frame) != c.NumData() {
		return Result{}, FrameStats{}, fmt.Errorf("%w: frame covers %d qubits, code has %d", ErrInvalidInput, len(frame), c.NumData())
	}
	if s == nil {
		s = NewScratch()
	}
	var mwpmBase mwpmCounters
	if s.mwpm != nil {
		mwpmBase = s.mwpm.counters
	}
	s.residual = append(s.residual[:0], frame...)
	res := Result{Residual: s.residual}
	sd, hasScratch := dec.(ScratchDecoder)
	decode := func(in Input) ([]int, error) {
		if hasScratch {
			return sd.DecodeWith(in, s)
		}
		return dec.Decode(in)
	}
	var stats FrameStats
	syn := &s.syn
	c.SyndromesInto(frame, syn)
	// X-type components live on the Z-graph; corrections are X flips.
	zCorr, err := decode(Input{
		Graph:     c.Graph(surfacecode.ZGraph),
		Syndromes: syn.Z,
		Erased:    erased,
		ErrorProb: errProb,
	})
	if err != nil {
		return Result{}, stats, fmt.Errorf("decoding Z-graph: %w", err)
	}
	for _, q := range zCorr {
		res.Residual.Apply(q, quantum.X)
	}
	// The z-side weights must be captured now: the x-side decode below
	// reuses the arena's correction buffers.
	zSynW, zCorrW := len(syn.Z), len(zCorr)
	// Z-type components live on the X-graph; corrections are Z flips.
	xCorr, err := decode(Input{
		Graph:     c.Graph(surfacecode.XGraph),
		Syndromes: syn.X,
		Erased:    erased,
		ErrorProb: errProb,
	})
	if err != nil {
		return Result{}, stats, fmt.Errorf("decoding X-graph: %w", err)
	}
	for _, q := range xCorr {
		res.Residual.Apply(q, quantum.Z)
	}
	xSynW, xCorrW := len(syn.X), len(xCorr)
	c.SyndromesInto(res.Residual, syn)
	if len(syn.Z) != 0 {
		return Result{}, stats, fmt.Errorf("decoder %s left %d Z-graph syndromes", dec.Name(), len(syn.Z))
	}
	if len(syn.X) != 0 {
		return Result{}, stats, fmt.Errorf("decoder %s left %d X-graph syndromes", dec.Name(), len(syn.X))
	}
	res.LogicalX = c.HasLogicalError(surfacecode.ZGraph, res.Residual)
	res.LogicalZ = c.HasLogicalError(surfacecode.XGraph, res.Residual)
	stats = FrameStats{
		SyndromeWeight:   zSynW + xSynW,
		CorrectionWeight: zCorrW + xCorrW,
		Elapsed:          time.Since(start),
	}
	if reg != nil {
		prefix := "decoder." + dec.Name() + "."
		reg.Counter(prefix + "decodes").Inc()
		reg.HDR(prefix+"decode_seconds", telemetry.WallLatencySpec).Observe(stats.Elapsed.Seconds())
		reg.HDR(prefix+"syndrome_weight", telemetry.CountSpec).Observe(float64(stats.SyndromeWeight))
		reg.HDR(prefix+"correction_weight", telemetry.CountSpec).Observe(float64(stats.CorrectionWeight))
		if res.Failed() {
			reg.Counter(prefix + "logical_failures").Inc()
		}
		if s.mwpm != nil {
			if d := s.mwpm.counters.sub(mwpmBase); d.any() {
				reg.Counter(prefix + "graph_cache_hits").Add(int64(d.graphHits))
				reg.Counter(prefix + "graph_cache_misses").Add(int64(d.graphMisses))
				reg.Counter(prefix + "dijkstra_cache_hits").Add(int64(d.spHits))
				reg.Counter(prefix + "dijkstra_cache_misses").Add(int64(d.spMisses))
			}
		}
	}
	return res, stats, nil
}
