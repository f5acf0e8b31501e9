package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"surfnet/internal/batch"
	"surfnet/internal/decoder"
	"surfnet/internal/obs"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/sim"
	"surfnet/internal/surfacecode"
	"surfnet/internal/telemetry"
)

// Fig8Config parameterizes the decoder threshold study of Fig. 8.
type Fig8Config struct {
	// Context, when non-nil, cancels the trial pool between trials (the
	// CLIs pass their signal-aware run context). Nil selects
	// context.Background().
	Context context.Context
	Seed    uint64
	// Trials is the Monte-Carlo sample count per (decoder, distance,
	// rate) point.
	Trials int
	// Workers is the trial worker-pool size; <= 0 selects
	// runtime.GOMAXPROCS(0) and 1 forces the serial path. Logical rates
	// are identical for every value (see internal/sim).
	Workers int
	// Batch decodes 64 trials per machine word on the packed engine
	// (internal/batch) instead of one scalar decode per trial. Rates stay
	// worker-invariant (the batch index seeds each stream) and every
	// lane's verdict equals the scalar pipeline's verdict on the same
	// error realization, but the sampled realizations come from a
	// different stream family than the scalar path's, so rates are
	// statistically — not bitwise — comparable with scalar runs. Only
	// UnionFind and default SurfNet decoders are supported.
	Batch bool
	// Distances are the evaluated code distances; the paper uses
	// 9, 11, 13, 15.
	Distances []int
	// PauliRates are the physical error rates; the paper sweeps
	// 5.0% - 8.5%.
	PauliRates []float64
	// ErasureRate is held fixed; the paper uses 15%.
	ErasureRate float64
	// Decoders are the compared decoders; the paper compares the
	// Union-Find baseline against the SurfNet Decoder.
	Decoders []decoder.Decoder
	// Layout selects the Core geometry.
	Layout surfacecode.CoreLayout
	// Metrics, when non-nil, collects per-decoder invocation counters and
	// wall-time / syndrome-weight / correction-weight histograms across
	// the whole study (decoderbench reports its p50/p99 from them).
	Metrics *telemetry.Registry
	// Progress, when non-nil, receives one live cell per (decoder,
	// distance, rate) point for the obs /status endpoint.
	Progress *obs.Tracker
}

// DefaultFig8Config returns the paper's Fig. 8 settings with an
// interactively sized trial count.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Seed:        1,
		Trials:      300,
		Distances:   []int{9, 11, 13, 15},
		PauliRates:  []float64{0.050, 0.055, 0.060, 0.065, 0.070, 0.075, 0.080, 0.085},
		ErasureRate: 0.15,
		Decoders:    []decoder.Decoder{decoder.UnionFind{}, decoder.SurfNet{}},
		Layout:      surfacecode.CoreLShape,
	}
}

// Fig8Point is one point of a Fig. 8 curve.
type Fig8Point struct {
	Decoder     string
	Distance    int
	PauliRate   float64
	LogicalRate float64
	Trials      int
}

// Fig8 reproduces the threshold plots: for every decoder, distance and Pauli
// rate, the logical error rate of the code under Pauli + erasure noise with
// both rates halved on the Core part (§VI-B).
func Fig8(cfg Fig8Config) ([]Fig8Point, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiments: Fig8 trials %d < 1", cfg.Trials)
	}
	var points []Fig8Point
	for _, dec := range cfg.Decoders {
		for _, d := range cfg.Distances {
			code, err := surfacecode.New(d, cfg.Layout)
			if err != nil {
				return nil, fmt.Errorf("experiments: building d=%d code: %w", d, err)
			}
			for _, p := range cfg.PauliRates {
				rate, err := logicalRate(cfg, fmt.Sprintf("fig8/%s/d%d/p%.3f", dec.Name(), d, p), code, dec, p)
				if err != nil {
					return nil, err
				}
				points = append(points, Fig8Point{
					Decoder:     dec.Name(),
					Distance:    d,
					PauliRate:   p,
					LogicalRate: rate,
					Trials:      cfg.Trials,
				})
			}
		}
	}
	return points, nil
}

// logicalRate Monte-Carlos the logical error rate of one (decoder,
// distance, Pauli rate) point on the sim worker pool, scalar or packed
// (cfg.Batch), under the live /status entry named cellLabel. Each trial's —
// packed, each batch's — error realization derives from the seed and its
// index, so the rate is identical for any worker count.
func logicalRate(cfg Fig8Config, cellLabel string, code *surfacecode.Code, dec decoder.Decoder, pauli float64) (float64, error) {
	nm := surfacecode.UniformNoise(code, pauli, cfg.ErasureRate)
	root := rng.New(cfg.Seed).Split(fmt.Sprintf("fig8/%s/%d/%.4f", dec.Name(), code.Distance(), pauli))
	ctx, done := cellContext(cfg.Context, cfg.Progress, cellLabel, cfg.Trials)
	defer done()
	var failed []bool
	var err error
	if cfg.Batch {
		failed, err = sim.RunBatch(ctx, cfg.Trials, batch.Lanes, cfg.Workers, packedTrials(code, nm, dec, pauli, root, cfg.Metrics))
	} else {
		failed, err = sim.Run(ctx, cfg.Trials, cfg.Workers, scalarTrial(code, nm, dec, pauli, root, cfg.Metrics))
	}
	if err != nil {
		return 0, err
	}
	fails := 0
	for _, f := range failed {
		if f {
			fails++
		}
	}
	return float64(fails) / float64(cfg.Trials), nil
}

// fig8Scratch is the per-worker arena of the threshold study's hot loop:
// reusable sample buffers plus the decoder's own scratch, so steady-state
// trials allocate nothing.
type fig8Scratch struct {
	frame  quantum.Frame
	erased []bool
	dec    *decoder.Scratch
}

// scalarTrial returns the trial function of one scalar logical-rate point:
// trial i samples from root.SplitN("t", i), decodes, and reports failure.
func scalarTrial(code *surfacecode.Code, nm *surfacecode.NoiseModel, dec decoder.Decoder, pauli float64, root *rng.Source, reg *telemetry.Registry) func(int, *sim.Worker) (bool, error) {
	probs := nm.EdgeErrorProb()
	// The probs vector is fixed for the whole cell, so one epoch tag lets
	// the MWPM cache skip the per-decode fidelity-vector hash. sim.Run
	// builds its workers per call, so an arena lives for this cell only and
	// takes the tag once, when it is built.
	epoch := decoder.NewProbsEpoch()
	return func(i int, w *sim.Worker) (bool, error) {
		sc := sim.Scratch(w, "fig8", func() *fig8Scratch {
			sc := &fig8Scratch{dec: decoder.NewScratch()}
			sc.dec.SetProbsEpoch(epoch)
			return sc
		})
		sc.frame, sc.erased = nm.SampleInto(root.SplitN("t", i), sc.frame, sc.erased)
		res, _, err := decoder.DecodeFrameWith(code, dec, sc.frame, sc.erased, probs, reg, sc.dec)
		if err != nil {
			return false, fmt.Errorf("experiments: decoding d=%d p=%v trial %d: %w",
				code.Distance(), pauli, i, err)
		}
		return res.Failed(), nil
	}
}

// batchScratch is the per-worker arena of the packed threshold study: the
// cell's batch.Engine, or the error building it. sim.RunBatch builds its
// workers per call, so an arena lives for one cell.
type batchScratch struct {
	eng *batch.Engine
	err error
}

// packedTrials returns the batch function of one packed logical-rate point
// on the 64-lane engine: each work unit decodes up to 64 trials in one
// Engine.Run, with the batch index — never the worker id — seeding the rng
// stream (root.SplitN("batch", b.Index)).
func packedTrials(code *surfacecode.Code, nm *surfacecode.NoiseModel, dec decoder.Decoder, pauli float64, root *rng.Source, reg *telemetry.Registry) func(sim.Batch, *sim.Worker) ([]bool, error) {
	return func(b sim.Batch, w *sim.Worker) ([]bool, error) {
		sc := sim.Scratch(w, "fig8batch", func() *batchScratch {
			eng, err := batch.NewEngine(code, nm, dec)
			return &batchScratch{eng: eng, err: err}
		})
		if sc.err != nil {
			return nil, fmt.Errorf("experiments: building packed engine for d=%d p=%v: %w", code.Distance(), pauli, sc.err)
		}
		mask, stats, err := sc.eng.Run(root.SplitN("batch", b.Index), b.Len)
		if err != nil {
			return nil, fmt.Errorf("experiments: packed decode d=%d p=%v batch %d: %w",
				code.Distance(), pauli, b.Index, err)
		}
		if reg != nil {
			prefix := "batch." + dec.Name() + "."
			reg.Counter(prefix + "fast_lanes").Add(int64(stats.FastLanes))
			reg.Counter(prefix + "fallback_lanes").Add(int64(stats.FallbackLanes))
			reg.Counter(prefix + "empty_lanes").Add(int64(stats.EmptyLanes))
		}
		out := make([]bool, b.Len)
		for l := range out {
			out[l] = mask>>uint(l)&1 == 1
		}
		return out, nil
	}
}

// EstimateThreshold locates the error threshold of a decoder from its Fig. 8
// points: the Pauli rate where the smallest-distance and largest-distance
// curves cross (below threshold larger codes win; above they lose). It
// returns NaN when the curves do not cross within the swept range.
func EstimateThreshold(points []Fig8Point, decoderName string) float64 {
	byDist := map[int][]Fig8Point{}
	for _, pt := range points {
		if pt.Decoder == decoderName {
			byDist[pt.Distance] = append(byDist[pt.Distance], pt)
		}
	}
	if len(byDist) < 2 {
		return math.NaN()
	}
	var dists []int
	for d := range byDist {
		dists = append(dists, d)
	}
	sort.Ints(dists)
	lo := byDist[dists[0]]
	hi := byDist[dists[len(dists)-1]]
	sort.Slice(lo, func(i, j int) bool { return lo[i].PauliRate < lo[j].PauliRate })
	sort.Slice(hi, func(i, j int) bool { return hi[i].PauliRate < hi[j].PauliRate })
	if len(lo) != len(hi) {
		return math.NaN()
	}
	// diff(p) = rate_small(p) - rate_large(p): positive below threshold
	// (the larger code has the lower logical rate), negative above. Find
	// the sign change.
	prev := lo[0].LogicalRate - hi[0].LogicalRate
	for i := 1; i < len(lo); i++ {
		cur := lo[i].LogicalRate - hi[i].LogicalRate
		if prev > 0 && cur <= 0 {
			// Linear interpolation between the two rates.
			p0, p1 := lo[i-1].PauliRate, lo[i].PauliRate
			if cur == prev {
				return (p0 + p1) / 2
			}
			return p0 + (p1-p0)*(0-prev)/(cur-prev)
		}
		prev = cur
	}
	return math.NaN()
}
