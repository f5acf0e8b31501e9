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
// own src.SplitN(req, code) stream, with no worker pool in between.
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
			o, err := runOne(e.net, sched, e.cfg, code, rs.Request, cr, stream, ri, ci)
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
// retransmissions) to make engine-path divergence visible.
func residentFixture(t *testing.T) (*Engine, routing.Schedule) {
	t.Helper()
	src := rng.New(8181)
	net, err := topology.Generate(topology.DefaultParams(topology.Abundant, topology.GoodConnection), src)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := topology.GenRequests(net, 5, 2, src.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := routing.ScheduleLP(net, reqs, routing.DefaultParams(routing.SurfNet))
	if err != nil {
		t.Fatal(err)
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
	eng, sched := residentFixture(t)
	want := executeSerial(t, eng, sched, rng.New(99))
	got, err := Run(eng.Network(), sched, eng.Config(), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if got.Design != want.Design || len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("shape mismatch: %v/%d vs %v/%d",
			got.Design, len(got.Outcomes), want.Design, len(want.Outcomes))
	}
	for i := range want.Outcomes {
		if got.Outcomes[i] != want.Outcomes[i] {
			t.Fatalf("outcome %d: %+v != %+v", i, got.Outcomes[i], want.Outcomes[i])
		}
	}
}

// TestEngineReentrant pins that one engine executing the same schedule twice
// from equal seeds yields identical results — no state leaks between calls.
func TestEngineReentrant(t *testing.T) {
	eng, sched := residentFixture(t)
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
	eng, sched := residentFixture(t)
	want := executeSerial(t, eng, sched, rng.New(77))
	for _, workers := range []int{1, 2, 3, 4} {
		got, err := eng.ExecuteParallel(context.Background(), sched, rng.New(77), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Outcomes) != len(want.Outcomes) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(got.Outcomes), len(want.Outcomes))
		}
		for i := range want.Outcomes {
			if got.Outcomes[i] != want.Outcomes[i] {
				t.Fatalf("workers=%d outcome %d: %+v != %+v",
					workers, i, got.Outcomes[i], want.Outcomes[i])
			}
		}
	}
}

func TestExecuteParallelCancellation(t *testing.T) {
	eng, sched := residentFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ExecuteParallel(ctx, sched, rng.New(1), 2); err == nil {
		t.Fatal("cancelled context should abort execution")
	}
}

func TestExecuteParallelEmptySchedule(t *testing.T) {
	eng, _ := residentFixture(t)
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
