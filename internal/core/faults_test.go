package core

import (
	"reflect"
	"testing"

	"surfnet/internal/decoder"
	"surfnet/internal/faults"
	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/telemetry"
)

// ringNet builds the recoverable topology of TestFiberOutagesAndRecovery:
// user(0)-switch(1)-server(2)-switch(3)-user(4) with switch(5) bridging 1-3.
func ringNet(t *testing.T) *network.Network {
	t.Helper()
	nodes := []network.Node{
		{ID: 0, Role: network.User},
		{ID: 1, Role: network.Switch, Capacity: 1000},
		{ID: 2, Role: network.Server, Capacity: 1000},
		{ID: 3, Role: network.Switch, Capacity: 1000},
		{ID: 4, Role: network.User},
		{ID: 5, Role: network.Switch, Capacity: 1000},
	}
	fibers := []network.Fiber{
		{ID: 0, A: 0, B: 1, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 1, A: 1, B: 2, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 2, A: 2, B: 3, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 3, A: 3, B: 4, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 4, A: 1, B: 5, Fidelity: 0.9, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 5, A: 5, B: 3, Fidelity: 0.9, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
	}
	net, err := network.New(nodes, fibers)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidationFaultKnobs(t *testing.T) {
	net := lineNet(t, 0.95, 0.5, 0.02)
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative RecoveryBackoff", func(c *Config) { c.RecoveryBackoff = -2 }},
		{"negative RecoveryBackoffMax", func(c *Config) { c.RecoveryBackoffMax = -1 }},
		{"backoff cap below start", func(c *Config) { c.RecoveryBackoff = 8; c.RecoveryBackoffMax = 4 }},
		{"negative ReplanAfterFails", func(c *Config) { c.ReplanAfterFails = -1 }},
		{"negative ReplanEpoch", func(c *Config) { c.ReplanEpoch = -5 }},
		{"fault probability above 1", func(c *Config) { c.Faults = &faults.Profile{NodeOutageProb: 1.5} }},
		{"negative drift window", func(c *Config) { c.Faults = &faults.Profile{DriftProb: 0.1, DriftWindow: -3} }},
		{"script targets missing fiber", func(c *Config) {
			c.Faults = &faults.Profile{Script: []faults.ScriptedFault{{Slot: 0, Duration: 5, ID: 99}}}
		}},
		{"script targets missing node", func(c *Config) {
			c.Faults = &faults.Profile{Script: []faults.ScriptedFault{{Slot: 0, Duration: 5, Node: true, ID: 99}}}
		}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if _, err := Run(net, sched, cfg, rng.New(1)); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

func TestNodeOutageSkipsCorrection(t *testing.T) {
	// Fidelity 0.8 schedules one correction at server 2 (see
	// TestSurfNetPerformsScheduledCorrections); a scripted outage covering
	// the whole run must degrade every code to destination-only decoding.
	net := lineNet(t, 0.8, 0.9, 0.02)
	sched := mustSchedule(t, net, routing.SurfNet, 2)
	if len(sched.Requests[0].Codes[0].Servers) != 1 {
		t.Fatal("precondition: schedule should include one EC")
	}
	cfg := DefaultConfig()
	cfg.Faults = &faults.Profile{
		Script: []faults.ScriptedFault{{Slot: 0, Duration: 100000, Node: true, ID: 2}},
	}
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(net, sched, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if !o.Delivered {
			t.Fatal("code not delivered past a down server")
		}
		if o.Corrections != 0 {
			t.Fatalf("corrections = %d at a down server, want 0", o.Corrections)
		}
		if o.SkippedCorrections != 1 {
			t.Fatalf("skipped corrections = %d, want 1", o.SkippedCorrections)
		}
	}
	if got := reg.Counter("core.correction_skips").Value(); got != int64(len(res.Outcomes)) {
		t.Errorf("correction_skips counter = %d, want %d", got, len(res.Outcomes))
	}
}

// blockedRun executes one SurfNet transfer on a line network whose interior
// fiber 1 is scripted down for the whole run, so every recovery attempt fails
// (a line has no detour). It returns the telemetry snapshot.
func blockedRun(t *testing.T, cfg Config) telemetry.Snapshot {
	t.Helper()
	net := lineNet(t, 0.95, 0.9, 0.02)
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	cfg.Faults = &faults.Profile{
		Script: []faults.ScriptedFault{{Slot: 0, Duration: 100000, ID: 1}},
	}
	cfg.MaxSlots = 200
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(net, sched, cfg, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredFraction() != 0 {
		t.Fatal("delivered through a permanently cut line")
	}
	for _, o := range res.Outcomes {
		if o.Recoveries != 0 {
			t.Fatal("recovery succeeded with no alternate path")
		}
	}
	return reg.Snapshot()
}

func TestRecoveryFailureWithoutAlternatePath(t *testing.T) {
	snap := blockedRun(t, DefaultConfig())
	if snap.Counters["core.recovery_failures"] == 0 {
		t.Error("no recovery failures recorded on a cut line")
	}
	if snap.Counters["core.recovery_backoff_skips"] != 0 {
		t.Error("backoff skips recorded with backoff disabled")
	}
}

func TestRecoveryBackoffRateLimitsSearches(t *testing.T) {
	plain := blockedRun(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.RecoveryBackoff = 2
	cfg.RecoveryBackoffMax = 16
	backed := blockedRun(t, cfg)
	pf, bf := plain.Counters["core.recovery_failures"], backed.Counters["core.recovery_failures"]
	if bf >= pf {
		t.Errorf("backoff ran %d recovery searches, legacy ran %d — backoff should run fewer", bf, pf)
	}
	if backed.Counters["core.recovery_backoff_skips"] == 0 {
		t.Error("no backoff skips recorded while rate-limited")
	}
}

func TestRecoveryNeverDetoursThroughUsers(t *testing.T) {
	// The only detour around the cut fiber 1 runs through user node 5;
	// recovery must refuse it (§V-B recovery paths traverse relays only).
	nodes := []network.Node{
		{ID: 0, Role: network.User},
		{ID: 1, Role: network.Switch, Capacity: 1000},
		{ID: 2, Role: network.Server, Capacity: 1000},
		{ID: 3, Role: network.Switch, Capacity: 1000},
		{ID: 4, Role: network.User},
		{ID: 5, Role: network.User},
	}
	fibers := []network.Fiber{
		{ID: 0, A: 0, B: 1, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 1, A: 1, B: 2, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 2, A: 2, B: 3, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 3, A: 3, B: 4, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 4, A: 1, B: 5, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 5, A: 5, B: 3, Fidelity: 0.95, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
	}
	net, err := network.New(nodes, fibers)
	if err != nil {
		t.Fatal(err)
	}
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	cfg := DefaultConfig()
	cfg.Faults = &faults.Profile{
		Script: []faults.ScriptedFault{{Slot: 0, Duration: 100000, ID: 1}},
	}
	cfg.MaxSlots = 200
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(net, sched, cfg, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Recoveries != 0 {
			t.Fatal("recovery detoured through a user node")
		}
	}
	if reg.Counter("core.recovery_failures").Value() == 0 {
		t.Error("no recovery failures recorded")
	}
}

func TestRecoverySpliceConsistency(t *testing.T) {
	// After a recovery splice the part's fiber path and node sequence must
	// stay mutually consistent: nodes is exactly the expansion of path.
	net := ringNet(t)
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	cfg := DefaultConfig()
	cfg.Faults = &faults.Profile{
		Script: []faults.ScriptedFault{{Slot: 0, Duration: 50, ID: 1}},
	}
	req := sched.Requests[0].Request
	cr := sched.Requests[0].Codes[0]
	tr := newTransfer(net, sched, cfg, cfg.Code, req, cr, rng.New(5), 0, 0, decoder.NewScratch())
	tr.stepFaults(0)
	if !tr.fiberDown(1) {
		t.Fatal("scripted fault did not take fiber 1 down")
	}
	stop := tr.support.stopIdx(tr.stopNodes[0])
	tr.tryRecovery(&tr.support, 0, stop)
	if tr.out.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 (bridge 1-5-3 is up)", tr.out.Recoveries)
	}
	for _, part := range []*partState{&tr.support, &tr.core} {
		if len(part.nodes) != len(part.path)+1 {
			t.Fatalf("nodes/path length mismatch: %d vs %d", len(part.nodes), len(part.path))
		}
		want := net.PathNodes(part.nodes[0], part.path)
		if !reflect.DeepEqual(part.nodes, want) {
			t.Fatalf("node sequence %v inconsistent with path expansion %v", part.nodes, want)
		}
	}
	// The recovered support route must avoid the down fiber.
	for _, fi := range tr.support.path {
		if fi == 1 {
			t.Fatal("recovered path still crosses the down fiber")
		}
	}
}

// branchNet builds a topology whose source has two outlets but whose primary
// route dead-ends when cut: user(0)-switch(1)-server(2)-switch(3)-user(4) on
// good fibers, plus a worse (but admissible) branch 0-switch(5)-3. The
// scheduler prefers the four-hop line; once fiber 1 is cut, node 1 has no
// onward path (its only other fiber leads back to user 0), so local recovery
// must fail while a fresh plan from the source can still use the branch.
func branchNet(t *testing.T) *network.Network {
	t.Helper()
	nodes := []network.Node{
		{ID: 0, Role: network.User},
		{ID: 1, Role: network.Switch, Capacity: 1000},
		{ID: 2, Role: network.Server, Capacity: 1000},
		{ID: 3, Role: network.Switch, Capacity: 1000},
		{ID: 4, Role: network.User},
		{ID: 5, Role: network.Switch, Capacity: 1000},
	}
	fibers := []network.Fiber{
		{ID: 0, A: 0, B: 1, Fidelity: 0.9, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 1, A: 1, B: 2, Fidelity: 0.9, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 2, A: 2, B: 3, Fidelity: 0.9, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 3, A: 3, B: 4, Fidelity: 0.9, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 4, A: 0, B: 5, Fidelity: 0.8, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
		{ID: 5, A: 5, B: 3, Fidelity: 0.8, EntPairs: 1000, EntRate: 0.8, LossProb: 0.02},
	}
	net, err := network.New(nodes, fibers)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestReplanAfterPersistentRecoveryFailure(t *testing.T) {
	// Fiber 1 is cut for the whole run once the code has left the source:
	// local recovery from node 1 can never succeed (the only other fiber
	// leads back to the user), so epoch re-planning must re-admit the
	// request over the surviving branch 0-5-3-4 and deliver.
	net := branchNet(t)
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	if got := sched.Requests[0].Codes[0].SupportPath; len(got) != 4 {
		t.Fatalf("precondition: schedule should take the four-hop line, got path %v", got)
	}
	cfg := DefaultConfig()
	cfg.Faults = &faults.Profile{Script: []faults.ScriptedFault{
		{Slot: 1, Duration: 100000, ID: 1},
	}}
	cfg.ReplanAfterFails = 3
	cfg.ReplanEpoch = 10
	cfg.MaxSlots = 400
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(net, sched, cfg, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Replans == 0 {
			t.Fatal("no replan despite persistent recovery failure")
		}
		if !o.Delivered {
			t.Fatal("replanned code not delivered over the surviving branch")
		}
	}
	if reg.Counter("core.replans").Value() == 0 {
		t.Error("replans counter not incremented")
	}
	// Without re-planning the same scenario must time out.
	cfg.ReplanAfterFails = 0
	res2, err := Run(net, sched, cfg, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if res2.DeliveredFraction() != 0 {
		t.Fatal("delivered without replanning across a cut primary route")
	}
}

func TestReplanFailureWhenNetworkSevered(t *testing.T) {
	// Cutting both of the source side's onward fibers disconnects the
	// destination entirely: recovery and re-planning must both fail, and
	// the failure must be counted rather than looping forever.
	net := branchNet(t)
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	cfg := DefaultConfig()
	cfg.Faults = &faults.Profile{Script: []faults.ScriptedFault{
		{Slot: 0, Duration: 100000, ID: 1},
		{Slot: 0, Duration: 100000, ID: 4},
	}}
	cfg.ReplanAfterFails = 2
	cfg.ReplanEpoch = 10
	cfg.MaxSlots = 200
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(net, sched, cfg, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredFraction() != 0 {
		t.Fatal("delivered across a severed network")
	}
	for _, o := range res.Outcomes {
		if o.Replans != 0 {
			t.Fatal("replan claimed success on a severed network")
		}
	}
	if reg.Counter("core.replan_failures").Value() == 0 {
		t.Error("replan failures not counted")
	}
}

func TestDriftDegradesFidelity(t *testing.T) {
	// Permanent heavy drift on every fiber must cost success rate relative
	// to the fault-free run of the same schedule and seed.
	net := lineNet(t, 0.95, 0.9, 0.02)
	sched := mustSchedule(t, net, routing.SurfNet, 20)
	clean, err := Run(net, sched, DefaultConfig(), rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = &faults.Profile{DriftProb: 1, DriftWindow: 1000, DriftDecay: 0.7}
	drifted, err := Run(net, sched, cfg, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Fidelity() >= clean.Fidelity() {
		t.Errorf("drifted fidelity %v not below clean %v", drifted.Fidelity(), clean.Fidelity())
	}
}

func TestFaultInjectedRunDeterminism(t *testing.T) {
	// A profile exercising every scenario class must reproduce outcomes
	// exactly under the same seed.
	net := ringNet(t)
	p := routing.DefaultParams(routing.SurfNet)
	sched, err := routing.Greedy(net, []network.Request{{Src: 0, Dst: 4, Messages: 6}}, p, nil, nil)
	if err != nil || sched.AcceptedCodes() == 0 {
		t.Fatalf("scheduling failed: %v", err)
	}
	cfg := DefaultConfig()
	cfg.MaxSlots = 600
	cfg.RecoveryBackoff = 2
	cfg.ReplanAfterFails = 4
	cfg.Faults = &faults.Profile{
		FiberCrashProb:      0.03,
		FiberRepairSlots:    10,
		NodeOutageProb:      0.02,
		NodeRepairSlots:     15,
		RegionalProb:        0.002,
		RegionalRepairSlots: 25,
		DriftProb:           0.05,
		DriftWindow:         8,
		DriftDecay:          0.9,
		Script:              []faults.ScriptedFault{{Slot: 30, Duration: 20, ID: 2}},
	}
	a, err := Run(net, sched, cfg, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, sched, cfg, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fault-injected run not reproducible under the same seed")
	}
}

func TestPurificationFaultsOptIn(t *testing.T) {
	// A fault profile reaches the purification baselines too.
	net := lineNet(t, 0.9, 0.6, 0.02)
	sched := mustSchedule(t, net, routing.Purification2, 3)
	base, err := Run(net, sched, DefaultConfig(), rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	explicit := DefaultConfig()
	explicit.Faults = &faults.Profile{FiberCrashProb: 0.2, FiberRepairSlots: 10}
	faulty, err := Run(net, sched, explicit, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base, faulty) {
		t.Fatal("explicit profile had no effect on purification baseline")
	}
}
