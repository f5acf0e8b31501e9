package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"surfnet/internal/decoder"
	"surfnet/internal/faults"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/topology"
)

// executeSerial is the reference the execution paths are checked against: a
// plain loop over the schedule's codes in (request, code) order, each on its
// own src.SplitN(req, code) stream and a fresh decode arena, with no worker
// pool in between. The engine's workers reuse one arena across codes, so
// matching this reference shows that a reused arena leaks nothing.
func executeSerial(t *testing.T, e *Engine, sched routing.Schedule, src *rng.Source) RunResult {
	t.Helper()
	if err := e.cfg.validateSchedule(sched); err != nil {
		t.Fatal(err)
	}
	res := RunResult{Design: sched.Design}
	for ri, rs := range sched.Requests {
		for ci, cr := range rs.Codes {
			code, err := e.codeFor(cr.Distance)
			if err != nil {
				t.Fatal(err)
			}
			stream := src.SplitN(fmt.Sprintf("req%d", ri), ci)
			o, err := runOne(e.net, sched, e.cfg, code, rs.Request, cr, stream, ri, ci, decoder.NewScratch())
			if err != nil {
				t.Fatalf("request %d code %d: %v", ri, ci, err)
			}
			o.Request, o.Code = ri, ci
			res.Outcomes = append(res.Outcomes, o)
		}
	}
	return res
}

// residentFixture builds a generated topology with an LP schedule and a
// fault-injecting config — enough moving parts (recoveries, re-plans,
// retransmissions) to make engine-path divergence visible. The adaptive
// fixture runs on insufficient facilities and poor fibers with adaptive code
// sizes, where the schedule mixes distances 3, 5 and 7, so one worker's
// decode arena serves codes of three sizes in one execution.
func residentFixture(t *testing.T, adaptive bool) (*Engine, routing.Schedule) {
	t.Helper()
	src := rng.New(8181)
	topo := topology.DefaultParams(topology.Abundant, topology.GoodConnection)
	p := routing.DefaultParams(routing.SurfNet)
	if adaptive {
		topo = topology.DefaultParams(topology.Insufficient, topology.PoorConnection)
		p.AdaptiveDistances = []int{3, 5, 7}
	}
	net, err := topology.Generate(topo, src)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := topology.GenRequests(net, 5, 2, src.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := routing.ScheduleLP(net, reqs, p)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive {
		sizes := map[int]bool{}
		for _, rs := range sched.Requests {
			for _, cr := range rs.Codes {
				sizes[cr.Distance] = true
			}
		}
		if len(sizes) != len(p.AdaptiveDistances) {
			t.Fatalf("adaptive schedule uses distances %v, want all of %v", sizes, p.AdaptiveDistances)
		}
	}
	cfg := DefaultConfig()
	cfg.Decoder = decoder.SurfNet{}
	cfg.Faults = &faults.Profile{FiberCrashProb: 0.01, FiberRepairSlots: 5}
	eng, err := NewEngine(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, sched
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, DefaultConfig()); err == nil {
		t.Error("nil network should fail")
	}
	net := lineNet(t, 0.95, 0.5, 0.02)
	bad := DefaultConfig()
	bad.Decoder = nil
	if _, err := NewEngine(net, bad); err == nil {
		t.Error("nil decoder should fail")
	}
}

// TestEngineExecuteMatchesRun pins the one-shot Run wrapper to the serial
// reference: field-for-field identical outcomes.
func TestEngineExecuteMatchesRun(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		eng, sched := residentFixture(t, adaptive)
		want := executeSerial(t, eng, sched, rng.New(99))
		got, err := Run(eng.Network(), sched, eng.Config(), rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		if got.Design != want.Design || len(got.Outcomes) != len(want.Outcomes) {
			t.Fatalf("adaptive=%v: shape mismatch: %v/%d vs %v/%d", adaptive,
				got.Design, len(got.Outcomes), want.Design, len(want.Outcomes))
		}
		for i := range want.Outcomes {
			if got.Outcomes[i] != want.Outcomes[i] {
				t.Fatalf("adaptive=%v outcome %d: %+v != %+v", adaptive, i, got.Outcomes[i], want.Outcomes[i])
			}
		}
	}
}

// TestEngineReentrant pins that one engine executing the same schedule twice
// from equal seeds yields identical results — no state leaks between calls.
func TestEngineReentrant(t *testing.T) {
	eng, sched := residentFixture(t, false)
	a, err := eng.ExecuteParallel(context.Background(), sched, rng.New(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.ExecuteParallel(context.Background(), sched, rng.New(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs across re-entrant executions", i)
		}
	}
}

// TestExecuteParallelWorkerInvariance pins the daemon's determinism contract:
// the parallel engine matches the serial reference for every worker count, so
// daemon-admitted transfers are reproducible regardless of pool width.
func TestExecuteParallelWorkerInvariance(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		eng, sched := residentFixture(t, adaptive)
		want := executeSerial(t, eng, sched, rng.New(77))
		for _, workers := range []int{1, 2, 3, 4} {
			got, err := eng.ExecuteParallel(context.Background(), sched, rng.New(77), workers)
			if err != nil {
				t.Fatalf("adaptive=%v workers=%d: %v", adaptive, workers, err)
			}
			if len(got.Outcomes) != len(want.Outcomes) {
				t.Fatalf("adaptive=%v workers=%d: %d outcomes, want %d", adaptive, workers, len(got.Outcomes), len(want.Outcomes))
			}
			for i := range want.Outcomes {
				if got.Outcomes[i] != want.Outcomes[i] {
					t.Fatalf("adaptive=%v workers=%d outcome %d: %+v != %+v",
						adaptive, workers, i, got.Outcomes[i], want.Outcomes[i])
				}
			}
		}
	}
}

func TestExecuteParallelCancellation(t *testing.T) {
	eng, sched := residentFixture(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ExecuteParallel(ctx, sched, rng.New(1), 2); err == nil {
		t.Fatal("cancelled context should abort execution")
	}
}

func TestExecuteParallelEmptySchedule(t *testing.T) {
	eng, _ := residentFixture(t, false)
	empty := routing.Schedule{Design: routing.SurfNet, Params: routing.DefaultParams(routing.SurfNet)}
	res, err := eng.ExecuteParallel(context.Background(), empty, rng.New(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 0 {
		t.Fatalf("empty schedule produced %d outcomes", len(res.Outcomes))
	}
}

// TestExecuteSchedulePropagatesValidation pins that schedule-dependent
// validation still fires on the resident path.
func TestExecuteScheduleValidation(t *testing.T) {
	net := lineNet(t, 0.95, 0.5, 0.02)
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	cfg := DefaultConfig()
	eng, err := NewEngine(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := sched
	bad.Params.CoreQubits++
	if _, err := eng.ExecuteParallel(context.Background(), bad, rng.New(1), 1); err == nil || !strings.Contains(err.Error(), "qubits") {
		t.Fatalf("schedule/code mismatch should fail, got %v", err)
	}
}
