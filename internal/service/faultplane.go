package service

import (
	"sort"
	"sync"

	"surfnet/internal/faults"
	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/telemetry"
)

// FaultPlane is the daemon's live network-state machine: one fault scenario
// (faults.Profile) stepped in epoch-tick time against the whole owned network,
// instead of per-transfer in slot time. Where the engine's per-transfer
// injectors model what one communication experiences, the plane models what
// the control plane *knows* — which fibers and nodes are down right now,
// which links are drifting — so every epoch plans around the current outages
// and /status and GET /v1/faults report them.
//
// Determinism: the plane owns one rng stream (split from the service seed)
// and advances only in Step, so a fixed sequence of Step and StepEpoch calls
// reproduces the same fault timeline regardless of worker count. The daemon's
// Run loop steps it on a wall-clock tick; tests step it directly.
type FaultPlane struct {
	net *network.Network
	src *rng.Source

	events        *telemetry.Counter // every fault transition
	fiberCrashes  *telemetry.Counter
	nodeCrashes   *telemetry.Counter
	regionCrashes *telemetry.Counter
	driftEpisodes *telemetry.Counter
	repairs       *telemetry.Counter
	tracer        telemetry.Tracer

	mu      sync.Mutex
	profile faults.Profile
	inj     faults.Injector
	step    int
	base    int // step the current profile was installed at (script time zero)
	total   int64
}

// newFaultPlane validates the profile against net and builds the plane. The
// plane is constructed even for a disabled profile, so a runtime SetProfile
// can arm it later.
func newFaultPlane(net *network.Network, profile faults.Profile, src *rng.Source, reg *telemetry.Registry, tracer telemetry.Tracer) (*FaultPlane, error) {
	if err := profile.ValidateAgainst(net); err != nil {
		return nil, err
	}
	return &FaultPlane{
		net:           net,
		src:           src,
		profile:       profile,
		inj:           profile.Build(net),
		events:        reg.Counter("fault.events"),
		fiberCrashes:  reg.Counter("fault.fiber_crashes"),
		nodeCrashes:   reg.Counter("fault.node_crashes"),
		regionCrashes: reg.Counter("fault.region_crashes"),
		driftEpisodes: reg.Counter("fault.drift_episodes"),
		repairs:       reg.Counter("fault.repairs"),
		tracer:        tracer,
	}, nil
}

// SetProfile swaps the fault scenario at runtime (POST /v1/faults). The new
// profile is validated against the network first — an out-of-range fiber or
// node is reported here instead of panicking mid-epoch — and its script runs
// in its own time zero: a timetable installed at step 100 with an event at
// slot 0 fires on the next Step. Injector state resets; outages of the
// previous scenario are lifted.
func (fp *FaultPlane) SetProfile(profile faults.Profile) error {
	if err := profile.ValidateAgainst(fp.net); err != nil {
		return err
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.profile = profile
	fp.inj = profile.Build(fp.net)
	fp.base = fp.step
	return nil
}

// Profile returns the scenario currently driving the plane.
func (fp *FaultPlane) Profile() faults.Profile {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.profile
}

// Step advances the plane one tick: every fiber and node of the network is in
// scope, transitions are sampled from the plane's own stream, and each event
// lands on the fault.* counters and the trace. It returns how many *outage*
// events (fiber/node/region crashes) fired; repairs and drift do not count.
func (fp *FaultPlane) Step() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.inj == nil {
		fp.step++
		return 0
	}
	rel := fp.step - fp.base
	crashes := 0
	emit := func(ev faults.Event) {
		fp.total++
		fp.events.Inc()
		switch ev.Kind {
		case faults.FiberCrash:
			fp.fiberCrashes.Inc()
			crashes++
		case faults.NodeCrash:
			fp.nodeCrashes.Inc()
			crashes++
		case faults.RegionCrash:
			fp.regionCrashes.Inc()
			crashes++
		case faults.DriftStart:
			fp.driftEpisodes.Inc()
		case faults.FiberRepair, faults.NodeRepair, faults.RegionRepair, faults.DriftEnd:
			fp.repairs.Inc()
		}
		if fp.tracer != nil {
			e := telemetry.Ev("service.fault", "kind", ev.Kind.String(), "id", ev.ID, "until", ev.Until)
			e.Slot = fp.step
			fp.tracer.Emit(e)
		}
	}
	fp.inj.Step(faults.Scope{
		Slot:   rel,
		Src:    fp.src,
		Fibers: func(visit func(fi int)) { allIDs(fp.net.NumFibers(), visit) },
		Nodes:  func(visit func(v int)) { allIDs(fp.net.NumNodes(), visit) },
	}, emit)
	fp.step++
	return crashes
}

// allIDs visits 0..n-1 in order — the whole network is in scope for the plane.
func allIDs(n int, visit func(int)) {
	for i := 0; i < n; i++ {
		visit(i)
	}
}

// FaultState is one consistent snapshot of the live network state: what is
// down and what is degraded right now. It doubles as the static overlay the
// epoch's transfers execute under and the JSON body of GET /v1/faults.
type FaultState struct {
	// Enabled reports whether any fault scenario is armed.
	Enabled bool `json:"enabled"`
	// Step is how many ticks the plane has taken.
	Step int `json:"step"`
	// Events is the total fault transitions observed since startup.
	Events int64 `json:"events"`
	// DownFibers and DownNodes list current outages, ascending.
	DownFibers []int `json:"down_fibers,omitempty"`
	DownNodes  []int `json:"down_nodes,omitempty"`
	// GammaScale maps drifting fibers to their current fidelity multiplier.
	GammaScale map[int]float64 `json:"gamma_scale,omitempty"`
}

// State snapshots the plane. The slices and map are fresh copies safe to hand
// across epochs and HTTP handlers.
func (fp *FaultPlane) State() FaultState {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	st := FaultState{Enabled: fp.inj != nil, Step: fp.step, Events: fp.total}
	if fp.inj == nil {
		return st
	}
	for fi := 0; fi < fp.net.NumFibers(); fi++ {
		if fp.inj.FiberDown(fi) {
			st.DownFibers = append(st.DownFibers, fi)
		}
		if g := fp.inj.Gamma(fi, 1); g != 1 {
			if st.GammaScale == nil {
				st.GammaScale = make(map[int]float64)
			}
			st.GammaScale[fi] = g
		}
	}
	for v := 0; v < fp.net.NumNodes(); v++ {
		if fp.inj.NodeDown(v) {
			st.DownNodes = append(st.DownNodes, v)
		}
	}
	sort.Ints(st.DownFibers)
	sort.Ints(st.DownNodes)
	return st
}

// Outaged reports whether the snapshot carries any outage or degradation.
func (st FaultState) Outaged() bool {
	return len(st.DownFibers) > 0 || len(st.DownNodes) > 0 || len(st.GammaScale) > 0
}

// Mask copies net with the snapshot's outages applied, for planning: down
// fibers keep their endpoints (IDs stay dense, the graph stays connected) but
// lose all scheduling value, down nodes lose their storage capacity, and
// drifting fibers advertise their degraded fidelity. Without outages — or if
// the masked network is somehow rejected — the base network is returned, so
// planning always has a topology.
func (st FaultState) Mask(net *network.Network) *network.Network {
	if !st.Outaged() {
		return net
	}
	nodeDown := make(map[int]bool, len(st.DownNodes))
	for _, v := range st.DownNodes {
		nodeDown[v] = true
	}
	fiberDown := make(map[int]bool, len(st.DownFibers))
	for _, fi := range st.DownFibers {
		fiberDown[fi] = true
	}
	nodes := make([]network.Node, net.NumNodes())
	for v := range nodes {
		nd := net.Node(v)
		if nodeDown[v] {
			nd.Capacity = 0
		}
		nodes[v] = nd
	}
	fibers := make([]network.Fiber, net.NumFibers())
	for fi := range fibers {
		f := net.Fiber(fi)
		if fiberDown[fi] || nodeDown[f.A] || nodeDown[f.B] {
			f.EntPairs, f.EntRate, f.LossProb, f.Fidelity = 0, 0, 1, 0.5
		} else if g, ok := st.GammaScale[fi]; ok {
			f.Fidelity *= g
			if f.Fidelity < 0.5 {
				f.Fidelity = 0.5
			}
		}
		fibers[fi] = f
	}
	masked, err := network.New(nodes, fibers)
	if err != nil {
		return net
	}
	return masked
}
