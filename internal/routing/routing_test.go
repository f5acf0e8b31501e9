package routing

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"surfnet/internal/lp"
	"surfnet/internal/network"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/topology"
)

// lineNet builds user(0)-switch(1)-server(2)-switch(3)-user(4) with uniform
// fiber fidelity and resources.
func lineNet(t *testing.T, fidelity float64, capacity, entPairs int) *network.Network {
	t.Helper()
	nodes := []network.Node{
		{ID: 0, Role: network.User},
		{ID: 1, Role: network.Switch, Capacity: capacity},
		{ID: 2, Role: network.Server, Capacity: capacity},
		{ID: 3, Role: network.Switch, Capacity: capacity},
		{ID: 4, Role: network.User},
	}
	var fibers []network.Fiber
	for i := 0; i < 4; i++ {
		fibers = append(fibers, network.Fiber{
			ID: i, A: i, B: i + 1, Fidelity: fidelity,
			EntPairs: entPairs, EntRate: 0.5, LossProb: 0.05,
		})
	}
	n, err := network.New(nodes, fibers)
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	return n
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(SurfNet).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := DefaultParams(SurfNet)
	bad.CoreQubits = 0
	if bad.Validate() == nil {
		t.Error("zero core qubits should fail")
	}
	bad = DefaultParams(Design(42))
	if bad.Validate() == nil {
		t.Error("unknown design should fail")
	}
	bad = DefaultParams(Raw)
	bad.RawCapacityFactor = 0.5
	if bad.Validate() == nil {
		t.Error("raw factor < 1 should fail")
	}
}

func TestDesignStringsAndRounds(t *testing.T) {
	if SurfNet.String() != "surfnet" || Raw.String() != "raw" {
		t.Error("design strings wrong")
	}
	if Purification1.PurifyRounds() != 1 || Purification9.PurifyRounds() != 9 || SurfNet.PurifyRounds() != 0 {
		t.Error("purify rounds wrong")
	}
	if p := DefaultParams(SurfNet); math.Abs(p.FidelityThreshold()-0.5) > 1e-12 {
		t.Errorf("fidelity threshold = %v, want 0.5 at Wc=1", p.FidelityThreshold())
	}
}

func TestGreedyCleanPath(t *testing.T) {
	// High-fidelity fibers: no error correction needed.
	net := lineNet(t, 0.95, 100, 100)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 2}}
	sched, err := Greedy(net, reqs, DefaultParams(SurfNet), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := sched.Requests[0]
	if rs.Accepted() != 2 {
		t.Fatalf("accepted %d, want 2", rs.Accepted())
	}
	mu := quantum.Noise(0.95)
	for _, cr := range rs.Codes {
		if len(cr.CorePath) != 4 || len(cr.SupportPath) != 4 {
			t.Fatalf("paths %v / %v, want 4 fibers each", cr.CorePath, cr.SupportPath)
		}
		if len(cr.Servers) != 0 {
			t.Fatalf("servers %v, want none on a clean path", cr.Servers)
		}
		if math.Abs(cr.CoreNoise-4*mu) > 1e-9 {
			t.Fatalf("core noise %v, want %v", cr.CoreNoise, 4*mu)
		}
		want := (0.5*7 + 34) / 41.0 * 4 * mu
		if math.Abs(cr.TotalNoise-want) > 1e-9 {
			t.Fatalf("total noise %v, want %v", cr.TotalNoise, want)
		}
	}
	if th := sched.Throughput(); th != 1 {
		t.Fatalf("throughput %v, want 1", th)
	}
}

func TestGreedySchedulesCorrection(t *testing.T) {
	// Fidelity 0.8: path core noise 4*log2(1/0.8) ~ 1.288 > Wc=1, so one
	// correction at the server is required and sufficient.
	net := lineNet(t, 0.8, 100, 100)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 1}}
	p := DefaultParams(SurfNet)
	sched, err := Greedy(net, reqs, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := sched.Requests[0]
	if rs.Accepted() != 1 {
		t.Fatalf("accepted %d, want 1", rs.Accepted())
	}
	cr := rs.Codes[0]
	if len(cr.Servers) != 1 || cr.Servers[0] != 2 {
		t.Fatalf("servers = %v, want [2]", cr.Servers)
	}
	raw := 4 * quantum.Noise(0.8)
	if math.Abs(cr.CoreNoise-(raw-p.Omega)) > 1e-9 {
		t.Fatalf("core noise %v, want %v", cr.CoreNoise, raw-p.Omega)
	}
	if cr.CoreNoise < 0 || cr.CoreNoise > p.CoreThreshold {
		t.Fatalf("core noise %v outside [0, Wc]", cr.CoreNoise)
	}
}

func TestGreedyRejectsHopelessPath(t *testing.T) {
	// Fidelity 0.6: core noise ~2.95; one server cannot absorb it.
	net := lineNet(t, 0.6, 100, 100)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 3}}
	sched, err := Greedy(net, reqs, DefaultParams(SurfNet), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Requests[0].Accepted() != 0 {
		t.Fatalf("accepted %d on a hopeless path, want 0", sched.Requests[0].Accepted())
	}
	if sched.Throughput() != 0 {
		t.Fatalf("throughput %v, want 0", sched.Throughput())
	}
}

func TestGreedyEntanglementBudget(t *testing.T) {
	// 20 pairs per fiber, 7 per code: only 2 codes fit.
	net := lineNet(t, 0.95, 1000, 20)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 5}}
	sched, err := Greedy(net, reqs, DefaultParams(SurfNet), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Requests[0].Accepted(); got != 2 {
		t.Fatalf("accepted %d, want 2 (entanglement-limited)", got)
	}
}

func TestGreedyCapacityBudget(t *testing.T) {
	// Relay capacity 90, 41 qubits per code through every relay: 2 codes.
	net := lineNet(t, 0.95, 90, 1000)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 5}}
	sched, err := Greedy(net, reqs, DefaultParams(SurfNet), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Requests[0].Accepted(); got != 2 {
		t.Fatalf("accepted %d, want 2 (capacity-limited)", got)
	}
}

func TestGreedyRawDesign(t *testing.T) {
	// Raw consumes no entangled pairs and gets scaled capacity.
	net := lineNet(t, 0.95, 100, 0)
	p := DefaultParams(Raw)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 3}}
	sched, err := Greedy(net, reqs, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 100*1.25 = 125 -> 3 codes of 41 fit.
	if got := sched.Requests[0].Accepted(); got != 3 {
		t.Fatalf("accepted %d, want 3", got)
	}
	cr := sched.Requests[0].Codes[0]
	if len(cr.CorePath) != 0 || len(cr.SupportPath) != 4 {
		t.Fatalf("raw paths: core %v support %v", cr.CorePath, cr.SupportPath)
	}
	if cr.CoreNoise != 0 {
		t.Fatalf("raw core noise %v, want 0", cr.CoreNoise)
	}
	// Whole code through plain channel: no 1/2 purification discount.
	if math.Abs(cr.TotalNoise-4*quantum.Noise(0.95)) > 1e-9 {
		t.Fatalf("raw total noise %v", cr.TotalNoise)
	}
}

func TestGreedyPurificationDesign(t *testing.T) {
	net := lineNet(t, 0.9, 1000, 1000)
	p := DefaultParams(Purification2)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 1}}
	sched, err := Greedy(net, reqs, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := sched.Requests[0]
	if rs.Accepted() != 1 {
		t.Fatalf("accepted %d, want 1", rs.Accepted())
	}
	cr := rs.Codes[0]
	if len(cr.Servers) != 0 {
		t.Fatal("purification design cannot schedule error corrections")
	}
	want := 4 * quantum.Noise(quantum.PurifyN(0.9, 2))
	if math.Abs(cr.TotalNoise-want) > 1e-9 {
		t.Fatalf("purified noise %v, want %v", cr.TotalNoise, want)
	}
	// Purified noise must beat the unpurified plain route.
	if cr.TotalNoise >= 4*quantum.Noise(0.9) {
		t.Fatal("purification did not reduce noise")
	}
}

func TestGreedyPurificationConsumesPairs(t *testing.T) {
	// One payload teleport + N purification pairs = 3 per fiber per
	// message with N=2; 5 prepared pairs admit exactly one message.
	net := lineNet(t, 0.9, 1000, 5)
	p := DefaultParams(Purification2)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 5}}
	sched, err := Greedy(net, reqs, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Requests[0].Accepted(); got != 1 {
		t.Fatalf("accepted %d, want 1 (pair-limited)", got)
	}
}

func TestChooseCorrections(t *testing.T) {
	p := DefaultParams(SurfNet) // Wc=1, W=1.2, omega=0.5
	tests := []struct {
		core, total float64
		servers     int
		want        int
		ok          bool
	}{
		{0.5, 0.4, 1, 0, true},          // under both thresholds
		{1.3, 0.9, 1, 1, true},          // core over, one EC fixes
		{1.3, 0.9, 0, 0, false},         // no server available
		{2.6, 1.5, 3, 4, false},         // would need 4, only 3 servers
		{1.1, 1.9, 2, 2, true},          // total drives the count
		{0.6, 1.9, 2, 0, false},         // 2 ECs push core below 0
		{math.Inf(1), 1.9, 2, 2, true},  // raw: no core bound
		{math.Inf(1), 0.4, 0, 0, true},  // raw clean
		{math.Inf(1), 9.0, 2, 0, false}, // raw hopeless
	}
	for i, tt := range tests {
		got, ok := chooseCorrections(tt.core, tt.total, p, tt.servers)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("case %d: got (%d,%v), want (%d,%v)", i, got, ok, tt.want, tt.ok)
		}
	}
}

func TestBuildLPShape(t *testing.T) {
	net := lineNet(t, 0.9, 100, 100)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 2}, {Src: 4, Dst: 0, Messages: 1}}
	form, err := BuildLP(net, reqs, DefaultParams(SurfNet))
	if err != nil {
		t.Fatal(err)
	}
	// Per request: Y, a and b on the 6 of 8 arcs Eq. 3 allows (none into
	// the source, none out of the destination), and x on 1 server = 14.
	if got := form.Problem.NumVars(); got != 2*14 {
		t.Fatalf("vars = %d, want 28", got)
	}
	if form.Problem.NumConstraints() == 0 {
		t.Fatal("no constraints built")
	}
	if _, err := BuildLP(net, reqs, DefaultParams(Purification1)); err == nil {
		t.Fatal("purification designs must not build an LP")
	}
}

func TestSolveLPBoundsGreedy(t *testing.T) {
	// The LP optimum upper-bounds any integral schedule.
	net := lineNet(t, 0.9, 200, 21) // 3 codes fit the pair budget
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 5}}
	p := DefaultParams(SurfNet)
	form, err := BuildLP(net, reqs, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := form.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.Y[0] < 3-1e-6 || res.Y[0] > 5+1e-6 {
		t.Fatalf("LP Y = %v, want within [3, 5]", res.Y[0])
	}
	sched, err := Greedy(net, reqs, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if float64(sched.AcceptedCodes()) > res.Objective+1e-6 {
		t.Fatalf("greedy %d beat the LP bound %v", sched.AcceptedCodes(), res.Objective)
	}
}

func TestScheduleLPEndToEnd(t *testing.T) {
	net := lineNet(t, 0.9, 200, 21)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 5}}
	sched, err := ScheduleLP(net, reqs, DefaultParams(SurfNet))
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.AcceptedCodes(); got != 3 {
		t.Fatalf("LP-rounded schedule accepted %d, want 3", got)
	}
	if sched.Design != SurfNet {
		t.Fatal("schedule lost its design tag")
	}
}

func TestScheduleLPOnGeneratedTopology(t *testing.T) {
	// End-to-end smoke on a paper-scale BA scenario for both LP designs.
	src := rng.New(2025)
	net, err := topology.Generate(topology.DefaultParams(topology.Sufficient, topology.GoodConnection), src)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := topology.GenRequests(net, 6, 3, src.Split("req"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Design{SurfNet, Raw} {
		sched, err := ScheduleLP(net, reqs, DefaultParams(d))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if sched.Throughput() < 0 || sched.Throughput() > 1 {
			t.Fatalf("%v: throughput %v outside [0,1]", d, sched.Throughput())
		}
		// Every scheduled route must satisfy the noise constraints.
		p := sched.Params
		for _, rs := range sched.Requests {
			for _, cr := range rs.Codes {
				if d == SurfNet && (cr.CoreNoise < -1e-9 || cr.CoreNoise > p.CoreThreshold+1e-9) {
					t.Fatalf("%v: core noise %v outside [0, %v]", d, cr.CoreNoise, p.CoreThreshold)
				}
				if cr.TotalNoise > p.TotalThreshold+1e-9 {
					t.Fatalf("%v: total noise %v above %v", d, cr.TotalNoise, p.TotalThreshold)
				}
				if f := cr.ExpectedFidelity(); f < 0 || f > 1 {
					t.Fatalf("%v: expected fidelity %v", d, f)
				}
			}
		}
	}
}

func TestMeanExpectedFidelity(t *testing.T) {
	empty := Schedule{}
	if empty.MeanExpectedFidelity() != 0 {
		t.Error("empty schedule should report 0 fidelity")
	}
	s := Schedule{Requests: []RequestSchedule{{
		Request: network.Request{Src: 0, Dst: 1, Messages: 2},
		Codes:   []CodeRoute{{TotalNoise: 1}, {TotalNoise: -0.5}},
	}}}
	// 2^-1 = 0.5 and clamped 2^0 = 1 -> mean 0.75.
	if got := s.MeanExpectedFidelity(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("mean fidelity %v, want 0.75", got)
	}
}

func TestLPNoiseInfeasibleGivesZero(t *testing.T) {
	// Fidelity 0.55 over 4 hops: ~3.45 core noise; one server cannot
	// absorb it, so the LP relaxation itself must pin Y to 0.
	net := lineNet(t, 0.55, 1000, 1000)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 3}}
	form, err := BuildLP(net, reqs, DefaultParams(SurfNet))
	if err != nil {
		t.Fatal(err)
	}
	res, err := form.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	// One EC server: the fractional Y can exploit at most omega of
	// correction; 3.45 - 0.5 >> Wc, so Y must be (near) zero.
	if res.Y[0] > 0.2 {
		t.Fatalf("LP admitted Y=%v on a hopeless path", res.Y[0])
	}
	sched, err := ScheduleLP(net, reqs, DefaultParams(SurfNet))
	if err != nil {
		t.Fatal(err)
	}
	if sched.AcceptedCodes() != 0 {
		t.Fatalf("rounding admitted %d codes on a hopeless path", sched.AcceptedCodes())
	}
}

func TestLPRawDesignSchedulesWithoutEntanglement(t *testing.T) {
	// Raw uses no entangled pairs: the LP must schedule even with zero
	// pair budgets.
	net := lineNet(t, 0.9, 1000, 0)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 2}}
	sched, err := ScheduleLP(net, reqs, DefaultParams(Raw))
	if err != nil {
		t.Fatal(err)
	}
	if sched.AcceptedCodes() != 2 {
		t.Fatalf("raw LP accepted %d, want 2", sched.AcceptedCodes())
	}
	// SurfNet on the same network cannot schedule anything.
	sched, err = ScheduleLP(net, reqs, DefaultParams(SurfNet))
	if err != nil {
		t.Fatal(err)
	}
	if sched.AcceptedCodes() != 0 {
		t.Fatalf("surfnet scheduled %d codes with no entangled pairs", sched.AcceptedCodes())
	}
}

func TestGreedyOrderRespected(t *testing.T) {
	// With a budget for only one code, the admission order decides which
	// request wins.
	net := lineNet(t, 0.95, 1000, 7)
	reqs := []network.Request{
		{Src: 0, Dst: 4, Messages: 1},
		{Src: 4, Dst: 0, Messages: 1},
	}
	p := DefaultParams(SurfNet)
	sched, err := Greedy(net, reqs, p, nil, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Requests[1].Accepted() != 1 || sched.Requests[0].Accepted() != 0 {
		t.Fatalf("admission order ignored: %d/%d",
			sched.Requests[0].Accepted(), sched.Requests[1].Accepted())
	}
}

func TestGreedyTargetsRespected(t *testing.T) {
	net := lineNet(t, 0.95, 1000, 1000)
	reqs := []network.Request{{Src: 0, Dst: 4, Messages: 5}}
	sched, err := Greedy(net, reqs, DefaultParams(SurfNet), []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Requests[0].Accepted() != 2 {
		t.Fatalf("target ignored: accepted %d, want 2", sched.Requests[0].Accepted())
	}
}

// TestSolverErrorReason pins the fallback reason each solver error gives,
// so a trace tells an iteration-cap solve from one whose answer failed the
// row check.
func TestSolverErrorReason(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{fmt.Errorf("phase 1: %w", lp.ErrIterationLimit), "lp-iteration-limit"},
		{fmt.Errorf("phase 2: %w", lp.ErrIterationLimit), "lp-iteration-limit"},
		{fmt.Errorf("phase 2: %w: row 3 off by 4", lp.ErrInaccurate), "lp-inaccurate"},
		{errors.New("lp: something else"), "solver-error"},
	} {
		if got := solverErrorReason(tc.err); got != tc.want {
			t.Errorf("solverErrorReason(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
