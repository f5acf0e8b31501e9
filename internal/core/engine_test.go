package core

import (
	"math"
	"testing"

	"surfnet/internal/decoder"
	"surfnet/internal/faults"
	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/surfacecode"
	"surfnet/internal/topology"
)

// lineNet builds user(0)-switch(1)-server(2)-switch(3)-user(4).
func lineNet(t *testing.T, fidelity float64, entRate, lossProb float64) *network.Network {
	t.Helper()
	nodes := []network.Node{
		{ID: 0, Role: network.User},
		{ID: 1, Role: network.Switch, Capacity: 1000},
		{ID: 2, Role: network.Server, Capacity: 1000},
		{ID: 3, Role: network.Switch, Capacity: 1000},
		{ID: 4, Role: network.User},
	}
	var fibers []network.Fiber
	for i := 0; i < 4; i++ {
		fibers = append(fibers, network.Fiber{
			ID: i, A: i, B: i + 1, Fidelity: fidelity,
			EntPairs: 1000, EntRate: entRate, LossProb: lossProb,
		})
	}
	n, err := network.New(nodes, fibers)
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	return n
}

// mustSchedule schedules one request end to end.
func mustSchedule(t *testing.T, net *network.Network, d routing.Design, messages int) routing.Schedule {
	t.Helper()
	p := routing.DefaultParams(d)
	sched, err := routing.Greedy(net, []network.Request{{Src: 0, Dst: 4, Messages: messages}}, p, nil, nil)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if sched.AcceptedCodes() == 0 {
		t.Fatal("schedule accepted nothing")
	}
	return sched
}

func TestConfigValidation(t *testing.T) {
	net := lineNet(t, 0.95, 0.5, 0.02)
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	src := rng.New(1)
	bad := DefaultConfig()
	bad.Code = nil
	if _, err := Run(net, sched, bad, src); err == nil {
		t.Error("nil code should fail")
	}
	bad = DefaultConfig()
	bad.Decoder = nil
	if _, err := Run(net, sched, bad, src); err == nil {
		t.Error("nil decoder should fail")
	}
	bad = DefaultConfig()
	bad.MinSegment = 0
	if _, err := Run(net, sched, bad, src); err == nil {
		t.Error("zero MinSegment should fail")
	}
	bad = DefaultConfig()
	bad.Code = surfacecode.MustNew(3, surfacecode.CoreLShape)
	if _, err := Run(net, sched, bad, src); err == nil {
		t.Error("code/schedule size mismatch should fail")
	}
}

func TestSurfNetCleanDelivery(t *testing.T) {
	// Near-perfect fibers and fast entanglement: everything delivers with
	// very high fidelity.
	net := lineNet(t, 0.999, 0.9, 0.001)
	sched := mustSchedule(t, net, routing.SurfNet, 4)
	res, err := Run(net, sched, DefaultConfig(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 4 {
		t.Fatalf("outcomes = %d, want 4", len(res.Outcomes))
	}
	if res.DeliveredFraction() != 1 {
		t.Fatalf("delivered %v, want all", res.DeliveredFraction())
	}
	if res.Fidelity() < 0.9 {
		t.Fatalf("fidelity %v on a near-perfect network", res.Fidelity())
	}
	if res.MeanLatency() < 4 {
		t.Fatalf("latency %v below the physical minimum (4 hops)", res.MeanLatency())
	}
}

func TestSurfNetPerformsScheduledCorrections(t *testing.T) {
	// Fidelity 0.8 forces one EC at the server (see routing tests); the
	// engine must actually perform it.
	net := lineNet(t, 0.8, 0.9, 0.02)
	sched := mustSchedule(t, net, routing.SurfNet, 2)
	if len(sched.Requests[0].Codes[0].Servers) != 1 {
		t.Fatal("precondition: schedule should include one EC")
	}
	res, err := Run(net, sched, DefaultConfig(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if !o.Delivered {
			t.Fatal("code not delivered")
		}
		if o.Corrections != 1 {
			t.Fatalf("corrections = %d, want 1", o.Corrections)
		}
	}
}

func TestRawDelivery(t *testing.T) {
	net := lineNet(t, 0.95, 0.0, 0.05) // no entanglement needed for Raw
	sched := mustSchedule(t, net, routing.Raw, 3)
	res, err := Run(net, sched, DefaultConfig(), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredFraction() != 1 {
		t.Fatalf("raw delivery %v, want 1 (plain channel cannot stall)", res.DeliveredFraction())
	}
	// Raw over 4 hops takes exactly 4 transport slots; the final decode
	// completes within the arrival slot.
	if res.MeanLatency() != 4 {
		t.Fatalf("raw latency %v, want 4", res.MeanLatency())
	}
}

func TestSurfNetSlowerEntanglementMeansHigherLatency(t *testing.T) {
	fast := lineNet(t, 0.95, 0.9, 0.02)
	slow := lineNet(t, 0.95, 0.15, 0.02)
	latency := func(net *network.Network) float64 {
		sched := mustSchedule(t, net, routing.SurfNet, 6)
		res, err := Run(net, sched, DefaultConfig(), rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredFraction() == 0 {
			t.Fatal("nothing delivered")
		}
		return res.MeanLatency()
	}
	lf, ls := latency(fast), latency(slow)
	if ls <= lf {
		t.Fatalf("slow entanglement latency %v should exceed fast %v", ls, lf)
	}
}

func TestPurificationDesigns(t *testing.T) {
	net := lineNet(t, 0.9, 0.6, 0.02)
	for _, d := range []routing.Design{routing.Purification1, routing.Purification2, routing.Purification9} {
		sched := mustSchedule(t, net, d, 3)
		res, err := Run(net, sched, DefaultConfig(), rng.New(19))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.DeliveredFraction() == 0 {
			t.Fatalf("%v: nothing delivered", d)
		}
		if f := res.Fidelity(); f < 0 || f > 1 {
			t.Fatalf("%v: fidelity %v", d, f)
		}
	}
	// Without memory decay, more purification rounds give higher fidelity
	// on poor links at the cost of slower delivery; with decay enabled,
	// the long waits of purification-9 eat the link-quality gain (the
	// paper's motivating weakness of teleportation-only networks).
	poor := lineNet(t, 0.75, 0.6, 0.02)
	fid := func(d routing.Design, trials int, decay float64) (float64, float64) {
		p := routing.DefaultParams(d)
		var succ, lat, delivered float64
		for i := 0; i < trials; i++ {
			sched, err := routing.Greedy(poor, []network.Request{{Src: 0, Dst: 4, Messages: 1}}, p, nil, nil)
			if err != nil || sched.AcceptedCodes() == 0 {
				t.Fatalf("%v: scheduling failed", d)
			}
			cfg := DefaultConfig()
			cfg.MaxSlots = 3000
			cfg.MemoryDecay = decay
			res, err := Run(poor, sched, cfg, rng.New(uint64(100+i)))
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range res.Outcomes {
				if o.Delivered {
					delivered++
					lat += float64(o.Latency)
				}
				if o.Success {
					succ++
				}
			}
		}
		return succ / float64(trials), lat / delivered
	}
	f1, l1 := fid(routing.Purification1, 120, 1)
	f9, l9 := fid(routing.Purification9, 120, 1)
	if f9 <= f1 {
		t.Errorf("purification-9 fidelity %v should beat purification-1 %v without decay", f9, f1)
	}
	if l9 <= l1 {
		t.Errorf("purification-9 latency %v should exceed purification-1 %v", l9, l1)
	}
	f9decayed, _ := fid(routing.Purification9, 120, 0.99)
	if f9decayed >= f9 {
		t.Errorf("memory decay should cost purification-9 fidelity: %v vs %v", f9decayed, f9)
	}
}

func TestWaitForCompleteTradeoff(t *testing.T) {
	// Lossy plain channel: waiting for retransmission must deliver
	// strictly later on average than erasure-marked early decoding, and
	// record retransmission waves.
	net := lineNet(t, 0.97, 0.9, 0.25)
	sched := mustSchedule(t, net, routing.SurfNet, 8)
	early, err := Run(net, sched, DefaultConfig(), rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WaitForComplete = true
	waiting, err := Run(net, sched, cfg, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if waiting.MeanLatency() <= early.MeanLatency() {
		t.Errorf("wait-for-complete latency %v should exceed early-decode %v",
			waiting.MeanLatency(), early.MeanLatency())
	}
	retrans := 0
	for _, o := range waiting.Outcomes {
		retrans += o.Retransmissions
	}
	if retrans == 0 {
		t.Error("no retransmissions recorded on a 25%-loss channel")
	}
	for _, o := range early.Outcomes {
		if o.Retransmissions != 0 {
			t.Error("early decoding must not retransmit")
		}
	}
}

func TestFiberOutagesAndRecovery(t *testing.T) {
	// A ring topology gives recovery paths; with outages the engine should
	// still deliver, occasionally via recovery.
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
	p := routing.DefaultParams(routing.SurfNet)
	sched, err := routing.Greedy(net, []network.Request{{Src: 0, Dst: 4, Messages: 10}}, p, nil, nil)
	if err != nil || sched.AcceptedCodes() == 0 {
		t.Fatalf("scheduling failed: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Faults = &faults.Profile{FiberCrashProb: 0.05, FiberRepairSlots: 20}
	cfg.MaxSlots = 1000
	res, err := Run(net, sched, cfg, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredFraction() < 0.8 {
		t.Fatalf("delivered %v under recoverable outages", res.DeliveredFraction())
	}
	// With recovery disabled the same seeds must never reroute.
	cfg.DisableRecovery = true
	res2, err := Run(net, sched, cfg, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res2.Outcomes {
		if o.Recoveries != 0 {
			t.Fatal("recovery recorded while disabled")
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	net := lineNet(t, 0.9, 0.5, 0.05)
	sched := mustSchedule(t, net, routing.SurfNet, 3)
	a, err := Run(net, sched, DefaultConfig(), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, sched, DefaultConfig(), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs across identical seeds", i)
		}
	}
}

func TestEmptyScheduleMetrics(t *testing.T) {
	var r RunResult
	if r.Fidelity() != 0 || r.MeanLatency() != 0 || r.DeliveredFraction() != 0 {
		t.Error("empty result metrics should be zero")
	}
}

func TestEndToEndOnGeneratedTopology(t *testing.T) {
	// Full pipeline: generate scenario, LP-schedule, execute, for both LP
	// designs and one purification baseline.
	src := rng.New(3030)
	net, err := topology.Generate(topology.DefaultParams(topology.Abundant, topology.GoodConnection), src)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := topology.GenRequests(net, 5, 2, src.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []routing.Design{routing.SurfNet, routing.Raw, routing.Purification2} {
		sched, err := routing.ScheduleLP(net, reqs, routing.DefaultParams(d))
		if err != nil {
			t.Fatalf("%v: schedule: %v", d, err)
		}
		cfg := DefaultConfig()
		cfg.Decoder = decoder.SurfNet{}
		res, err := Run(net, sched, cfg, src.Split(d.String()))
		if err != nil {
			t.Fatalf("%v: run: %v", d, err)
		}
		if len(res.Outcomes) != sched.AcceptedCodes() {
			t.Fatalf("%v: %d outcomes for %d codes", d, len(res.Outcomes), sched.AcceptedCodes())
		}
		if f := res.Fidelity(); math.IsNaN(f) || f < 0 || f > 1 {
			t.Fatalf("%v: fidelity %v", d, f)
		}
	}
}
