// Package routing implements the SurfNet routing protocol of §V: the offline
// scheduling stage formulated as the integer program of Eq. (1)-(6), solved
// through its LP relaxation with rounding (the variant the paper evaluates),
// plus a greedy shortest-noise-path scheduler used both as the rounding
// repair step and as a standalone comparator. The package also builds
// schedules for the paper's baseline designs (Raw and Purification N).
package routing

import (
	"fmt"

	"surfnet/internal/quantum"
	"surfnet/internal/telemetry"
)

// Design selects a network design from §VI-B.
type Design int

// The five evaluated designs.
const (
	// SurfNet is the paper's dual-channel design: Core via the
	// entanglement-based channel, Support via the plain channel, error
	// correction at servers.
	SurfNet Design = 1 + iota
	// Raw transfers whole surface codes through plain channels only; no
	// Core/Support split; relays gain capacity since they no longer
	// prepare entanglement.
	Raw
	// Purification1, 2 and 9 are the mainstream teleportation-only
	// networks consuming N extra entangled pairs per fiber for
	// purification.
	Purification1
	Purification2
	Purification9
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case SurfNet:
		return "surfnet"
	case Raw:
		return "raw"
	case Purification1:
		return "purification-1"
	case Purification2:
		return "purification-2"
	case Purification9:
		return "purification-9"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// PurifyRounds returns N for purification designs and 0 otherwise.
func (d Design) PurifyRounds() int {
	switch d {
	case Purification1:
		return 1
	case Purification2:
		return 2
	case Purification9:
		return 9
	default:
		return 0
	}
}

// Params are the pre-defined routing parameters of Table I.
type Params struct {
	// Design selects the network design being scheduled.
	Design Design
	// CoreQubits is n, the number of Core data qubits per surface code.
	CoreQubits int
	// SupportQubits is m, the number of Support data qubits.
	SupportQubits int
	// Omega is the noise reduction from one error correction at a server.
	Omega float64
	// CoreThreshold is Wc, the per-code noise threshold for the Core part.
	CoreThreshold float64
	// TotalThreshold is W, the per-code noise threshold for the entire
	// surface code.
	TotalThreshold float64
	// RawCapacityFactor scales relay capacities for the Raw design
	// ("increased capacity as they no longer need to prepare
	// entanglements").
	RawCapacityFactor float64
	// AdaptiveDistances, when non-empty, enables the quality-of-service
	// adaptive code sizing the paper flags as a future direction (§VI-C):
	// for every code the scheduler picks the smallest distance from this
	// ascending list whose (distance-scaled) noise tolerance covers the
	// route, trading resource consumption against protection. Only
	// meaningful for the SurfNet and Raw designs. CoreQubits and
	// SupportQubits then describe the reference distance 5.
	AdaptiveDistances []int
	// Metrics, when non-nil, receives scheduler counters: LP solves,
	// simplex pivots/iterations, rounding decisions, greedy admissions
	// and fallbacks. It is instrumentation, not a Table I parameter, and
	// the nil default is a no-op.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives routing events (LP solve outcomes,
	// per-request rounding decisions, greedy fallbacks).
	Tracer telemetry.Tracer
}

// CodeDims returns the Core and Support sizes of a distance-d planar code
// under the paper's axis-count partition: core = (d-1)+(d-2) and
// support = d^2+(d-1)^2 - core.
func CodeDims(d int) (core, support int) {
	core = 2*d - 3
	return core, d*d + (d-1)*(d-1) - core
}

// DefaultParams returns the paper-scale defaults: a distance-5 planar
// surface code, which in our (unrotated) layout has 41 data qubits with 7 of
// them Core — the same (d-1)+(d-2) = 7 Core qubits as the §V-A worked example
// (the example's 25-qubit total corresponds to the rotated-lattice counting).
// Omega and the thresholds are tuned so that multi-hop paths through good
// fibers are feasible with occasional error correction.
func DefaultParams(d Design) Params {
	return Params{
		Design:            d,
		CoreQubits:        7,
		SupportQubits:     34,
		Omega:             0.5,
		CoreThreshold:     1.0,
		TotalThreshold:    1.2,
		RawCapacityFactor: 1.25,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch p.Design {
	case SurfNet, Raw, Purification1, Purification2, Purification9:
	default:
		return fmt.Errorf("routing: invalid design %v", p.Design)
	}
	if p.CoreQubits <= 0 || p.SupportQubits <= 0 {
		return fmt.Errorf("routing: code sizes must be positive, got n=%d m=%d", p.CoreQubits, p.SupportQubits)
	}
	if p.Omega < 0 || p.CoreThreshold <= 0 || p.TotalThreshold <= 0 {
		return fmt.Errorf("routing: omega/thresholds must be positive (omega=%v Wc=%v W=%v)",
			p.Omega, p.CoreThreshold, p.TotalThreshold)
	}
	if p.Design == Raw && p.RawCapacityFactor < 1 {
		return fmt.Errorf("routing: raw capacity factor %v < 1", p.RawCapacityFactor)
	}
	if len(p.AdaptiveDistances) > 0 {
		if p.Design != SurfNet && p.Design != Raw {
			return fmt.Errorf("routing: adaptive code sizes require the surfnet or raw design, got %v", p.Design)
		}
		prev := 1
		for _, d := range p.AdaptiveDistances {
			if d < 2 {
				return fmt.Errorf("routing: adaptive distance %d < 2", d)
			}
			if d <= prev {
				return fmt.Errorf("routing: adaptive distances must be strictly ascending")
			}
			prev = d
		}
	}
	return nil
}

// referenceDistance is the code distance at which CoreThreshold and
// TotalThreshold are specified; thresholds scale as (d-1)/(ref-1) for other
// distances.
const referenceDistance = 5

// atDistance returns a copy of p specialized to code distance d: Core and
// Support sizes from the lattice, thresholds scaled by the distance ratio
// (d-1)/(ref-1) — a larger code tolerates proportionally more accumulated
// noise before its logical axes are at risk.
func (p Params) atDistance(d int) Params {
	out := p
	core, support := CodeDims(d)
	out.CoreQubits = core
	out.SupportQubits = support
	scale := float64(d-1) / float64(referenceDistance-1)
	out.CoreThreshold *= scale
	out.TotalThreshold *= scale
	return out
}

// TotalQubits returns n+m, the data qubits per surface code.
func (p Params) TotalQubits() int { return p.CoreQubits + p.SupportQubits }

// SetCodeSize fixes n and m to match an actual surface code partition:
// n = coreSize, m = totalData - coreSize.
func (p *Params) SetCodeSize(totalData, coreSize int) {
	p.CoreQubits = coreSize
	p.SupportQubits = totalData - coreSize
}

// FidelityThreshold converts the Core noise threshold to the fidelity
// threshold 1/2^Wc plotted in Fig. 6(b.4).
func (p Params) FidelityThreshold() float64 {
	return quantum.FidelityFromNoise(p.CoreThreshold)
}
