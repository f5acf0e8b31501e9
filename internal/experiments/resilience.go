package experiments

import (
	"fmt"
	"math"

	"surfnet/internal/faults"
	"surfnet/internal/metrics"
	"surfnet/internal/routing"
	"surfnet/internal/topology"
)

// ResilienceDesigns lists the designs compared by the resilience sweep:
// SurfNet against the Raw and purification-2 baselines, the paper's headline
// robustness claim (§V-B failure handling) under a fault model wider than the
// paper's own.
var ResilienceDesigns = []routing.Design{
	routing.SurfNet,
	routing.Raw,
	routing.Purification2,
}

// ResilienceProfile returns the fault scenario at a given intensity. The
// intensity scales every per-slot fault probability from the unit profile —
// i.i.d. fiber crashes, server outages, correlated regional failures, and
// fidelity drift — while repair times and the drift shape stay fixed, so the
// sweep varies how often faults strike, not how hard each one hits.
func ResilienceProfile(intensity float64) faults.Profile {
	clamp := func(p float64) float64 { return math.Min(1, math.Max(0, p)) }
	return faults.Profile{
		FiberCrashProb:      clamp(0.010 * intensity),
		FiberRepairSlots:    15,
		NodeOutageProb:      clamp(0.005 * intensity),
		NodeRepairSlots:     20,
		RegionalProb:        clamp(0.001 * intensity),
		RegionalRepairSlots: 30,
		DriftProb:           clamp(0.020 * intensity),
		DriftWindow:         10,
		DriftDecay:          0.97,
	}
}

// ResilienceRow is one cell of the resilience sweep: one design at one fault
// intensity, with the standard metrics plus the recovery behaviour.
type ResilienceRow struct {
	Intensity float64
	Design    routing.Design
	Cell      Cell
	// Delivered summarizes per-trial delivered fractions (codes arriving
	// within the slot budget; failures here are timeouts).
	Delivered metrics.Summary
	// Recoveries, Replans, and SkippedCorrections summarize the per-trial
	// mean count per executed code of local recovery reroutes, epoch
	// re-plans, and corrections skipped at down servers.
	Recoveries         metrics.Summary
	Replans            metrics.Summary
	SkippedCorrections metrics.Summary
}

// Resilience sweeps fault intensity on the sufficient/good scenario for every
// design in ResilienceDesigns. The same fault profile drives all designs
// (purification baselines react to the fiber and drift components — they have
// no correction servers); the engine's backoff and re-planning knobs come
// from cfg.Engine, so the caller chooses the recovery policy under test.
func Resilience(cfg Config, intensities []float64) ([]ResilienceRow, error) {
	if intensities == nil {
		intensities = []float64{0, 0.5, 1, 2, 4, 8}
	}
	var rows []ResilienceRow
	for _, x := range intensities {
		for _, design := range ResilienceDesigns {
			sub := cfg
			if x > 0 {
				p := ResilienceProfile(x)
				if cfg.Engine.Faults != nil {
					p.Script = cfg.Engine.Faults.Script // keep caller's timetable
				}
				sub.Engine.Faults = &p
			}
			spec := trialSpec{
				params:   topology.DefaultParams(topology.Sufficient, topology.GoodConnection),
				design:   design,
				routing:  routing.DefaultParams(design),
				requests: cfg.Requests,
				maxMsgs:  cfg.MaxMessages,
			}
			outcomes, err := networkTrials(sub, spec, fmt.Sprintf("resilience/%.2f/%s", x, design))
			if err != nil {
				return nil, err
			}
			// Ordered reduction, as in runCell, plus the recovery
			// behaviour of every trial that executed codes.
			row := ResilienceRow{Intensity: x, Design: design}
			for _, out := range outcomes {
				if row.Cell.add(out) {
					row.Delivered.Add(out.delivered)
					row.Recoveries.Add(out.recPer)
					row.Replans.Add(out.replanPer)
					row.SkippedCorrections.Add(out.skipPer)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
