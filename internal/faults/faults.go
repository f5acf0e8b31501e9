// Package faults is the deterministic fault-injection subsystem of the
// online execution engine. The paper's failure model (§V-B) is minimal —
// i.i.d. per-slot fiber crashes with a fixed repair time — while its headline
// claim is exactly about staying alive under failures; this package widens
// the model into composable fault scenarios the engine consults every slot:
//
//   - stochastic fiber crashes (the paper's model),
//   - node/server outages (a down server cannot perform its scheduled error
//     correction),
//   - correlated regional failures (every fiber at a struck node goes down
//     together),
//   - fidelity drift (a fiber's gamma decays over a degradation window
//     instead of failing outright),
//   - scripted faults (an exact timetable of outages, for reproducible
//     what-if scenarios and tests).
//
// Determinism contract: an Injector owns no randomness. Every stochastic
// decision draws from the *rng.Source handed in through the Scope — in
// SurfNet's engine that is the per-transfer stream derived from the root
// seed — and scenario state advances only in Step, in enumeration order.
// Fault-injected runs therefore stay byte-identical across worker counts,
// exactly like fault-free ones.
package faults

import "surfnet/internal/rng"

// Kind classifies a fault event reported by an Injector.
type Kind int

// Fault event kinds.
const (
	// FiberCrash marks a fiber going down (stochastic or scripted).
	FiberCrash Kind = 1 + iota
	// FiberRepair marks a crashed fiber coming back up.
	FiberRepair
	// NodeCrash marks a node outage (stochastic or scripted).
	NodeCrash
	// NodeRepair marks a node outage ending.
	NodeRepair
	// RegionCrash marks a correlated regional failure: the node and every
	// incident fiber go down together.
	RegionCrash
	// RegionRepair marks a regional failure ending.
	RegionRepair
	// DriftStart marks a fiber entering a fidelity-drift episode.
	DriftStart
	// DriftEnd marks a drift episode ending.
	DriftEnd
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FiberCrash:
		return "fiber_crash"
	case FiberRepair:
		return "fiber_repair"
	case NodeCrash:
		return "node_crash"
	case NodeRepair:
		return "node_repair"
	case RegionCrash:
		return "region_crash"
	case RegionRepair:
		return "region_repair"
	case DriftStart:
		return "drift_start"
	case DriftEnd:
		return "drift_end"
	default:
		return "unknown"
	}
}

// Event is one fault transition, reported synchronously from Step so the
// engine can translate it into telemetry without this package depending on
// the telemetry layer.
type Event struct {
	Kind Kind
	// Slot is the slot the transition happened in.
	Slot int
	// ID is the fiber or node the event concerns.
	ID int
	// Until is the slot the outage or episode is scheduled to end
	// (meaningful for crash/start kinds).
	Until int
}

// Scope describes what is in play for one transfer at one slot: the
// randomness stream faults must draw from and deterministic enumerations of
// the fibers and nodes the transfer still cares about. Enumeration order is
// part of the determinism contract — injectors consume randomness in exactly
// the order the callbacks visit.
type Scope struct {
	// Slot is the current execution slot.
	Slot int
	// Src is the randomness stream for this transfer; all sampling must
	// come from here.
	Src *rng.Source
	// Fibers visits the in-play fiber IDs (the remaining route), deduped,
	// in deterministic order. May be nil when no fibers are in scope.
	Fibers func(visit func(fi int))
	// Nodes visits the in-play node IDs (the upcoming error-correction
	// servers), in deterministic order. May be nil.
	Nodes func(visit func(v int))
}

// Injector is the per-transfer fault state machine the engine consults every
// slot. Step advances the scenario; the query methods report the resulting
// fault state for the slot last stepped. Injectors are not safe for
// concurrent use — the engine builds one per transfer.
type Injector interface {
	// Step samples this slot's fault transitions from sc.Src and reports
	// each through emit (which may be nil).
	Step(sc Scope, emit func(Event))
	// FiberDown reports whether fiber fi is unavailable.
	FiberDown(fi int) bool
	// NodeDown reports whether node v is out of service.
	NodeDown(v int) bool
	// Gamma returns fiber fi's effective fidelity given its nominal value.
	// Implementations without drift must return gamma unchanged (no
	// floating-point rewriting), so fault-free paths stay byte-identical.
	Gamma(fi int, gamma float64) float64
}

// send reports ev through emit when a sink is attached.
func send(emit func(Event), ev Event) {
	if emit != nil {
		emit(ev)
	}
}

// multi composes injectors; children step in construction order, which fixes
// the order randomness is consumed in.
type multi []Injector

// Compose chains injectors into one. Nil children are dropped; composing
// zero injectors yields nil (no faults), and composing one returns it
// directly.
func Compose(injs ...Injector) Injector {
	var m multi
	for _, in := range injs {
		if in != nil {
			m = append(m, in)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	default:
		return m
	}
}

// Step implements Injector.
func (m multi) Step(sc Scope, emit func(Event)) {
	for _, in := range m {
		in.Step(sc, emit)
	}
}

// FiberDown implements Injector: down if any child says so.
func (m multi) FiberDown(fi int) bool {
	for _, in := range m {
		if in.FiberDown(fi) {
			return true
		}
	}
	return false
}

// NodeDown implements Injector: down if any child says so.
func (m multi) NodeDown(v int) bool {
	for _, in := range m {
		if in.NodeDown(v) {
			return true
		}
	}
	return false
}

// Gamma implements Injector: children degrade the fidelity in order.
func (m multi) Gamma(fi int, gamma float64) float64 {
	for _, in := range m {
		gamma = in.Gamma(fi, gamma)
	}
	return gamma
}
