package faults

import (
	"errors"
	"fmt"

	"surfnet/internal/network"
)

// ErrProfile is returned for invalid fault profiles.
var ErrProfile = errors.New("faults: invalid profile")

// Profile is the declarative fault scenario attached to an engine Config:
// zero values switch each component off, so the zero Profile injects
// nothing. Build compiles it into the live Injector for one transfer. Its
// JSON form is the body of the daemon's POST /v1/faults and the profile
// that GET /v1/faults echoes; zero components are omitted.
type Profile struct {
	// FiberCrashProb is the per-slot probability that an in-play fiber
	// crashes (the paper's §V-B model).
	FiberCrashProb float64 `json:"fiber_crash_prob,omitempty"`
	// FiberRepairSlots is how long a crashed fiber stays down.
	FiberRepairSlots int `json:"fiber_repair_slots,omitempty"`

	// NodeOutageProb is the per-slot probability that an upcoming
	// error-correction server goes out of service; the engine then skips
	// that correction and the code degrades to destination-only decoding.
	NodeOutageProb float64 `json:"node_outage_prob,omitempty"`
	// NodeRepairSlots is how long a node outage lasts.
	NodeRepairSlots int `json:"node_repair_slots,omitempty"`

	// RegionalProb is the per-slot probability of a correlated regional
	// failure at a node touched by the remaining route: the node and all
	// its incident fibers go down together.
	RegionalProb float64 `json:"regional_prob,omitempty"`
	// RegionalRepairSlots is how long a regional outage lasts.
	RegionalRepairSlots int `json:"regional_repair_slots,omitempty"`

	// DriftProb is the per-slot probability that an in-play fiber enters a
	// fidelity-drift episode.
	DriftProb float64 `json:"drift_prob,omitempty"`
	// DriftWindow is the episode length in slots; zero selects 10.
	DriftWindow int `json:"drift_window,omitempty"`
	// DriftDecay is the per-slot multiplicative gamma decay during an
	// episode; zero selects 0.98.
	DriftDecay float64 `json:"drift_decay,omitempty"`

	// Script is an exact outage timetable applied on top of the stochastic
	// scenarios; in JSON it is one string in flag syntax,
	// SLOT:fiber|node:ID:DURATION,...
	Script Script `json:"script,omitempty"`

	// DownFibers, DownNodes, and GammaScale form the static overlay: the
	// listed fibers and nodes are down for the whole transfer, and fiber fi's
	// nominal fidelity is multiplied by GammaScale[fi]. A resident control
	// plane snapshots its live fault state into these fields at each epoch
	// boundary so every transfer of the epoch sees one consistent network,
	// while the stochastic components above stay per-transfer Monte Carlo.
	// The overlay consumes no randomness, keeping runs worker-invariant.
	DownFibers []int           `json:"down_fibers,omitempty"`
	DownNodes  []int           `json:"down_nodes,omitempty"`
	GammaScale map[int]float64 `json:"gamma_scale,omitempty"`
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.FiberCrashProb > 0 || p.NodeOutageProb > 0 || p.RegionalProb > 0 ||
		p.DriftProb > 0 || len(p.Script) > 0 ||
		len(p.DownFibers) > 0 || len(p.DownNodes) > 0 || len(p.GammaScale) > 0
}

// driftWindow resolves the default episode length.
func (p Profile) driftWindow() int {
	if p.DriftWindow == 0 {
		return 10
	}
	return p.DriftWindow
}

// driftDecay resolves the default per-slot decay.
func (p Profile) driftDecay() float64 {
	if p.DriftDecay == 0 {
		return 0.98
	}
	return p.DriftDecay
}

// Validate checks the profile's parameters.
func (p Profile) Validate() error {
	check := func(name string, prob float64, repair int) error {
		if prob < 0 || prob > 1 {
			return fmt.Errorf("%w: %s probability %v", ErrProfile, name, prob)
		}
		if repair < 0 {
			return fmt.Errorf("%w: %s repair slots %d < 0", ErrProfile, name, repair)
		}
		return nil
	}
	if err := check("fiber-crash", p.FiberCrashProb, p.FiberRepairSlots); err != nil {
		return err
	}
	if err := check("node-outage", p.NodeOutageProb, p.NodeRepairSlots); err != nil {
		return err
	}
	if err := check("regional", p.RegionalProb, p.RegionalRepairSlots); err != nil {
		return err
	}
	if p.DriftProb < 0 || p.DriftProb > 1 {
		return fmt.Errorf("%w: drift probability %v", ErrProfile, p.DriftProb)
	}
	if p.DriftWindow < 0 {
		return fmt.Errorf("%w: drift window %d < 0", ErrProfile, p.DriftWindow)
	}
	if p.DriftDecay < 0 || p.DriftDecay > 1 {
		return fmt.Errorf("%w: drift decay %v outside [0,1]", ErrProfile, p.DriftDecay)
	}
	for i, ev := range p.Script {
		if ev.Slot < 0 || ev.Duration < 0 || ev.ID < 0 {
			return fmt.Errorf("%w: script event %d (slot %d, duration %d, id %d)",
				ErrProfile, i, ev.Slot, ev.Duration, ev.ID)
		}
	}
	for _, fi := range p.DownFibers {
		if fi < 0 {
			return fmt.Errorf("%w: overlay fiber %d < 0", ErrProfile, fi)
		}
	}
	for _, v := range p.DownNodes {
		if v < 0 {
			return fmt.Errorf("%w: overlay node %d < 0", ErrProfile, v)
		}
	}
	for fi, g := range p.GammaScale {
		if fi < 0 || g < 0 || g > 1 {
			return fmt.Errorf("%w: overlay gamma scale %v on fiber %d", ErrProfile, g, fi)
		}
	}
	return nil
}

// ValidateAgainst additionally checks script targets against a concrete
// network.
func (p Profile) ValidateAgainst(net *network.Network) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, ev := range p.Script {
		if ev.Node && ev.ID >= net.NumNodes() {
			return fmt.Errorf("%w: script event %d targets node %d of %d", ErrProfile, i, ev.ID, net.NumNodes())
		}
		if !ev.Node && ev.ID >= net.NumFibers() {
			return fmt.Errorf("%w: script event %d targets fiber %d of %d", ErrProfile, i, ev.ID, net.NumFibers())
		}
	}
	for _, fi := range p.DownFibers {
		if fi >= net.NumFibers() {
			return fmt.Errorf("%w: overlay targets fiber %d of %d", ErrProfile, fi, net.NumFibers())
		}
	}
	for _, v := range p.DownNodes {
		if v >= net.NumNodes() {
			return fmt.Errorf("%w: overlay targets node %d of %d", ErrProfile, v, net.NumNodes())
		}
	}
	for fi := range p.GammaScale {
		if fi >= net.NumFibers() {
			return fmt.Errorf("%w: overlay gamma scale targets fiber %d of %d", ErrProfile, fi, net.NumFibers())
		}
	}
	return nil
}

// Build compiles the profile into a live Injector for one transfer over net.
// It returns nil when the profile is disabled. Scenario order (fiber
// crashes, node outages, regional, drift, script) fixes the order randomness
// is consumed in and must stay stable across releases — it is part of the
// reproducibility contract.
func (p Profile) Build(net *network.Network) Injector {
	if !p.Enabled() {
		return nil
	}
	return Compose(
		NewFiberCrashes(p.FiberCrashProb, p.FiberRepairSlots),
		NewNodeOutages(p.NodeOutageProb, p.NodeRepairSlots),
		NewRegional(net, p.RegionalProb, p.RegionalRepairSlots),
		NewDrift(p.DriftProb, p.driftWindow(), p.driftDecay()),
		NewScripted(p.Script),
		NewStatic(p.DownFibers, p.DownNodes, p.GammaScale),
	)
}
