package experiments

import (
	"context"
	"fmt"

	"surfnet/internal/decoder"
	"surfnet/internal/obs"
	"surfnet/internal/routing"
	"surfnet/internal/surfacecode"
	"surfnet/internal/telemetry"
	"surfnet/internal/topology"
)

// AblationRow is one variant of an ablation study.
type AblationRow struct {
	Variant string
	Cell    Cell
}

// AdaptiveStudy compares fixed distance-5 SurfNet scheduling against the
// QoS-adaptive code sizing the paper flags as a future direction (§VI-C), on
// the insufficient-facility scenario where resource pressure is highest.
func AdaptiveStudy(cfg Config) ([]AblationRow, error) {
	base := routing.DefaultParams(routing.SurfNet)
	adaptive := base
	adaptive.AdaptiveDistances = []int{3, 5, 7}
	variants := []struct {
		name string
		p    routing.Params
	}{
		{"fixed-d5", base},
		{"adaptive-d357", adaptive},
	}
	var rows []AblationRow
	for _, v := range variants {
		spec := trialSpec{
			params:   topology.DefaultParams(topology.Insufficient, topology.GoodConnection),
			design:   routing.SurfNet,
			routing:  v.p,
			requests: cfg.Requests,
			maxMsgs:  cfg.MaxMessages,
		}
		cell, err := runCell(cfg, spec, "ablation/adaptive/"+v.name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: v.name, Cell: cell})
	}
	return rows, nil
}

// DecoderPoint is one decoder variant's logical error rate at a fixed
// operating point.
type DecoderPoint struct {
	Variant     string
	LogicalRate float64
	Trials      int
}

// DecoderStudyConfig parameterizes the decoder-level ablation studies
// (step size, Core layout, erasure growth).
type DecoderStudyConfig struct {
	// Context, when non-nil, cancels the trial pool between trials (the
	// CLIs pass their signal-aware run context). Nil selects
	// context.Background().
	Context context.Context
	Seed    uint64
	// Trials is the Monte-Carlo sample count per variant.
	Trials int
	// Workers is the trial worker-pool size; <= 0 selects
	// runtime.GOMAXPROCS(0) and 1 forces the serial path. Rates are
	// identical for every value (see internal/sim).
	Workers int
	// Metrics, when non-nil, collects per-decoder telemetry across the
	// study's trials.
	Metrics *telemetry.Registry
	// Progress, when non-nil, receives one live cell per ablation variant
	// for the obs /status endpoint.
	Progress *obs.Tracker
}

// DefaultDecoderStudyConfig returns interactively sized study settings.
func DefaultDecoderStudyConfig() DecoderStudyConfig {
	return DecoderStudyConfig{Seed: 1, Trials: 200}
}

// decoderAblation measures a list of decoder variants at one (d, p, e)
// operating point.
func decoderAblation(cfg DecoderStudyConfig, distance int, pauli, erasure float64,
	layout surfacecode.CoreLayout, variants []struct {
		name string
		dec  decoder.Decoder
	}) ([]DecoderPoint, error) {
	code, err := surfacecode.New(distance, layout)
	if err != nil {
		return nil, err
	}
	rateCfg := Fig8Config{
		Context:     cfg.Context,
		Seed:        cfg.Seed,
		Trials:      cfg.Trials,
		Workers:     cfg.Workers,
		ErasureRate: erasure,
		Metrics:     cfg.Metrics,
		Progress:    cfg.Progress,
	}
	var out []DecoderPoint
	for _, v := range variants {
		rate, err := logicalRate(rateCfg, "ablation/decoder/"+v.name, code, v.dec, pauli)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		out = append(out, DecoderPoint{Variant: v.name, LogicalRate: rate, Trials: cfg.Trials})
	}
	return out, nil
}

// StepSizeStudy sweeps the SurfNet Decoder step size r around the paper's
// default 2/3 ("the decoder step size can be further adjusted to optimize
// between the decoding speed and accuracy", §IV-C).
func StepSizeStudy(cfg DecoderStudyConfig, steps []float64) ([]DecoderPoint, error) {
	if steps == nil {
		steps = []float64{1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 1.5}
	}
	variants := make([]struct {
		name string
		dec  decoder.Decoder
	}, len(steps))
	for i, r := range steps {
		variants[i].name = fmt.Sprintf("r=%.3f", r)
		variants[i].dec = decoder.SurfNet{StepSize: r}
	}
	return decoderAblation(cfg, 11, 0.07, 0.15, surfacecode.CoreLShape, variants)
}

// DecoderFamilyStudy compares the three decoder families — Union-Find,
// the SurfNet Decoder, and cached sparse MWPM — at the reference operating
// point. The MWPM column was dropped from default runs when a dense decode
// cost ~40µs; the scratch-cached sparse path (DESIGN §10) re-admits it to
// 20k-trial sweeps (ROADMAP item 5). logicalRate tags each cell with a
// probs epoch, so MWPM skips the per-frame fidelity hash throughout.
func DecoderFamilyStudy(cfg DecoderStudyConfig) ([]DecoderPoint, error) {
	return decoderAblation(cfg, 11, 0.07, 0.15, surfacecode.CoreLShape,
		[]struct {
			name string
			dec  decoder.Decoder
		}{
			{"union-find", decoder.UnionFind{}},
			{"surfnet", decoder.SurfNet{}},
			{"mwpm", decoder.MWPM{}},
		})
}

// LayoutPoints is one Core layout's decoder points in the layout study.
type LayoutPoints struct {
	Layout string
	Points []DecoderPoint
}

// CoreLayoutStudy compares the fixed L-shape Core topology against the
// diagonal alternative ("a more optimized geometry ... presents potential
// future directions", §VI-C). The layouts come back in that order.
func CoreLayoutStudy(cfg DecoderStudyConfig) ([]LayoutPoints, error) {
	var out []LayoutPoints
	for _, layout := range []surfacecode.CoreLayout{surfacecode.CoreLShape, surfacecode.CoreDiagonal} {
		pts, err := decoderAblation(cfg, 11, 0.07, 0.15, layout,
			[]struct {
				name string
				dec  decoder.Decoder
			}{
				{"union-find", decoder.UnionFind{}},
				{"surfnet", decoder.SurfNet{}},
			})
		if err != nil {
			return nil, err
		}
		out = append(out, LayoutPoints{Layout: layout.String(), Points: pts})
	}
	return out, nil
}

// ErasureGrowthStudy compares the SurfNet Decoder's default erasure
// pre-absorption against the literal finite-speed reading of Algorithm 2
// line 5 (see decoder.SurfNet.FiniteErasureGrowth).
func ErasureGrowthStudy(cfg DecoderStudyConfig) ([]DecoderPoint, error) {
	return decoderAblation(cfg, 11, 0.07, 0.15, surfacecode.CoreLShape,
		[]struct {
			name string
			dec  decoder.Decoder
		}{
			{"pre-absorbed", decoder.SurfNet{}},
			{"finite-speed", decoder.SurfNet{FiniteErasureGrowth: true}},
		})
}

// SchedulerStudy compares the paper's LP-relaxation-with-rounding scheduler
// against the pure greedy shortest-noise-path comparator on the sufficient
// scenario, where capacity contention makes global optimization matter.
func SchedulerStudy(cfg Config) ([]AblationRow, error) {
	var rows []AblationRow
	for _, useLP := range []bool{true, false} {
		name := "lp-rounding"
		sub := cfg
		sub.UseLP = useLP
		if !useLP {
			name = "greedy"
		}
		spec := trialSpec{
			params:   topology.DefaultParams(topology.Sufficient, topology.GoodConnection),
			design:   routing.SurfNet,
			routing:  routing.DefaultParams(routing.SurfNet),
			requests: cfg.Requests,
			maxMsgs:  cfg.MaxMessages,
		}
		cell, err := runCell(sub, spec, "ablation/scheduler/"+name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: name, Cell: cell})
	}
	return rows, nil
}

// WaitForCompleteStudy measures the §V-B efficiency/reliability trade-off:
// erasure-marked early decoding versus waiting for retransmitted Support
// qubits, on a lossy sufficient-facility scenario.
func WaitForCompleteStudy(cfg Config) ([]AblationRow, error) {
	fac := topology.Sufficient
	fac.LossProb = 0.2 // lossy plain channels make the trade-off visible
	var rows []AblationRow
	for _, wait := range []bool{false, true} {
		name := "early-decode"
		engine := cfg.Engine
		if wait {
			name = "wait-for-complete"
			engine.WaitForComplete = true
		}
		sub := cfg
		sub.Engine = engine
		spec := trialSpec{
			params:   topology.DefaultParams(fac, topology.GoodConnection),
			design:   routing.SurfNet,
			routing:  routing.DefaultParams(routing.SurfNet),
			requests: cfg.Requests,
			maxMsgs:  cfg.MaxMessages,
		}
		cell, err := runCell(sub, spec, "ablation/wait/"+name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: name, Cell: cell})
	}
	return rows, nil
}

// FormatAblation renders ablation rows with the three network metrics.
func FormatAblation(rows []AblationRow) string {
	out := fmt.Sprintf("%-20s %12s %12s %12s\n", "variant", "throughput", "fidelity", "latency")
	for _, r := range rows {
		out += fmt.Sprintf("%-20s %9.3f±%.2f %9.3f±%.2f %9.1f±%.1f\n",
			r.Variant,
			r.Cell.Throughput.Mean(), r.Cell.Throughput.CI95(),
			r.Cell.Fidelity.Mean(), r.Cell.Fidelity.CI95(),
			r.Cell.Latency.Mean(), r.Cell.Latency.CI95())
	}
	return out
}

// FormatDecoderPoints renders decoder-ablation points.
func FormatDecoderPoints(points []DecoderPoint) string {
	out := fmt.Sprintf("%-20s %14s %8s\n", "variant", "logical-rate", "trials")
	for _, p := range points {
		out += fmt.Sprintf("%-20s %14.4f %8d\n", p.Variant, p.LogicalRate, p.Trials)
	}
	return out
}
