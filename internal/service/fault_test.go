package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"surfnet/internal/faults"
	"surfnet/internal/telemetry"
)

// allFiberIDs lists every fiber of the service's network, for building
// everything-is-down overlays.
func allFiberIDs(s *Service) []int {
	ids := make([]int, s.eng.Network().NumFibers())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// stepUntilTerminal drives epochs until the transfer leaves the live states.
func stepUntilTerminal(t *testing.T, svc *Service, id string, maxSteps int) TransferStatus {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateCompleted || st.State == StateFailed {
			return st
		}
		if _, err := svc.StepEpoch(context.Background()); err != nil {
			// Epoch-level errors still settle the batch; keep stepping.
			continue
		}
	}
	st, _ := svc.Get(id)
	t.Fatalf("transfer %s still %q after %d steps", id, st.State, maxSteps)
	return TransferStatus{}
}

func TestFaultPlaneScriptedOutage(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, _ := fixture(t, Config{
		Metrics:   reg,
		FaultTick: -1,
		Faults:    &faults.Profile{Script: []faults.ScriptedFault{{Slot: 0, Duration: 100, Node: true, ID: 2}}},
	})
	if down := svc.StepFaults(); down != 1 {
		t.Fatalf("StepFaults = %d outage events, want 1", down)
	}
	fs := svc.FaultState()
	if !fs.Enabled || len(fs.DownNodes) != 1 || fs.DownNodes[0] != 2 {
		t.Fatalf("fault state = %+v, want node 2 down", fs)
	}
	if fs.Events == 0 || fs.Step != 1 {
		t.Fatalf("fault state events/step = %d/%d", fs.Events, fs.Step)
	}
	if v := reg.Counter("fault.events").Value(); v != 1 {
		t.Fatalf("fault.events = %d, want 1", v)
	}
	if v := reg.Counter("fault.node_crashes").Value(); v != 1 {
		t.Fatalf("fault.node_crashes = %d, want 1", v)
	}
	// The outage expires silently (scripted timetables emit no repair
	// events) and the node comes back up.
	for i := 0; i < 101; i++ {
		svc.StepFaults()
	}
	if fs := svc.FaultState(); len(fs.DownNodes) != 0 {
		t.Fatalf("node still down after script expiry: %+v", fs)
	}
}

func TestNoPathFailureClassAndRetryBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, subs := fixture(t, Config{Metrics: reg, FaultTick: -1})
	// Every fiber down: planning sees a dead topology, so the scheduler can
	// admit nothing and the transfer fails with class no_path — after
	// consuming its whole retry budget.
	if err := svc.SetFaultProfile(faults.Profile{DownFibers: allFiberIDs(svc)}); err != nil {
		t.Fatal(err)
	}
	sub := subs[0]
	sub.RetryBudget = 2
	st, err := svc.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	final := stepUntilTerminal(t, svc, st.ID, 30)
	if final.State != StateFailed || final.FailureClass != FailNoPath {
		t.Fatalf("final = %q/%q, want failed/no_path", final.State, final.FailureClass)
	}
	if final.Retries != 2 {
		t.Fatalf("retries = %d, want the full budget of 2", final.Retries)
	}
	status := svc.Status()
	if status.Retries != 2 || status.FailedByClass[FailNoPath] != 1 {
		t.Fatalf("status retries/by-class = %d/%v", status.Retries, status.FailedByClass)
	}
	tn := status.Tenants[sub.Tenant]
	if tn.Failed != 1 || tn.FailedByClass[FailNoPath] != 1 {
		t.Fatalf("tenant accounting = %+v", tn)
	}
	if v := reg.Counter("service.failed_no_path").Value(); v != 1 {
		t.Fatalf("service.failed_no_path = %d, want 1", v)
	}
	if v := reg.Counter("service.retries").Value(); v != 2 {
		t.Fatalf("service.retries = %d, want 2", v)
	}

	// Zero budget: first failed attempt is terminal.
	st2, err := svc.Submit(subs[1])
	if err != nil {
		t.Fatal(err)
	}
	final2 := stepUntilTerminal(t, svc, st2.ID, 5)
	if final2.State != StateFailed || final2.Retries != 0 {
		t.Fatalf("zero-budget final = %q retries %d", final2.State, final2.Retries)
	}

	// Lifting the faults restores service: the same request completes.
	if err := svc.SetFaultProfile(faults.Profile{}); err != nil {
		t.Fatal(err)
	}
	st3, err := svc.Submit(subs[0])
	if err != nil {
		t.Fatal(err)
	}
	final3 := stepUntilTerminal(t, svc, st3.ID, 5)
	if final3.State != StateCompleted {
		t.Fatalf("post-repair transfer = %q (%s), want completed", final3.State, final3.Error)
	}
}

func TestDeadlineExpiryIsTerminal(t *testing.T) {
	svc, subs := fixture(t, Config{Metrics: telemetry.NewRegistry(), FaultTick: -1})
	sub := subs[0]
	sub.DeadlineMs = 1
	sub.RetryBudget = 5 // a missed deadline must not be resurrected by retries
	st, err := svc.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := svc.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	final, err := svc.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.FailureClass != FailDeadline || final.Retries != 0 {
		t.Fatalf("expired transfer = %+v, want failed/deadline with 0 retries", final)
	}
}

func TestSubmitValidatesRobustnessContract(t *testing.T) {
	svc, subs := fixture(t, Config{FaultTick: -1})
	bad := subs[0]
	bad.DeadlineMs = -1
	if _, err := svc.Submit(bad); err == nil {
		t.Fatal("negative deadline must be rejected")
	}
	bad = subs[0]
	bad.RetryBudget = maxRetryBudget + 1
	if _, err := svc.Submit(bad); err == nil {
		t.Fatal("oversized retry budget must be rejected")
	}
	// A deadline whose time.Duration overflows would wrap into the past.
	for _, ms := range []int64{maxDeadlineMs + 1, 10_000_000_000_000} {
		bad = subs[0]
		bad.DeadlineMs = ms
		if _, err := svc.Submit(bad); err == nil {
			t.Fatalf("deadline_ms %d overflows time.Duration and must be rejected", ms)
		}
	}
	far := subs[0]
	far.DeadlineMs = maxDeadlineMs
	st, err := svc.Submit(far)
	if err != nil {
		t.Fatal(err)
	}
	if tr := svc.transfers[st.ID]; !tr.deadline.After(tr.submitted) {
		t.Fatalf("deadline_ms %d gave deadline %v before admission %v", far.DeadlineMs, tr.deadline, tr.submitted)
	}
}

func TestRetryAfterHintTracksEpochWall(t *testing.T) {
	svc, _ := fixture(t, Config{Metrics: telemetry.NewRegistry(), FaultTick: -1})
	if got := svc.RetryAfterHint(); got != 1 {
		t.Fatalf("cold hint = %d, want 1", got)
	}
	for i := 0; i < 9; i++ {
		svc.epochWall.Observe(4.2)
	}
	if got := svc.RetryAfterHint(); got != 5 {
		t.Fatalf("hint = %d, want ceil(4.2) = 5", got)
	}
	for i := 0; i < 100; i++ {
		svc.epochWall.Observe(900)
	}
	if got := svc.RetryAfterHint(); got != 30 {
		t.Fatalf("hint = %d, want clamp at 30", got)
	}
}

func TestDrainUnderScriptedOutageZeroDrop(t *testing.T) {
	// SIGTERM mid-outage: a regional outage is live, several transfers are
	// queued (some doomed to retry), and the daemon must still satisfy
	// admitted == completed + failed with every record terminal.
	svc, subs := fixture(t, Config{
		EpochMax:  2,
		Metrics:   telemetry.NewRegistry(),
		FaultTick: -1,
		Faults:    &faults.Profile{Script: []faults.ScriptedFault{{Slot: 0, Duration: 1000, Node: true, ID: 1}}},
	})
	var ids []string
	for _, sub := range subs {
		sub.RetryBudget = 3
		st, err := svc.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	svc.StepFaults() // the outage is live before the drain begins
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- svc.Run(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not complete under faults")
	}
	st := svc.Status()
	if st.Admitted != st.Completed+st.Failed {
		t.Fatalf("zero-drop violated: admitted %d != completed %d + failed %d",
			st.Admitted, st.Completed, st.Failed)
	}
	for _, id := range ids {
		got, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateCompleted && got.State != StateFailed {
			t.Fatalf("%s state = %q after drain", id, got.State)
		}
		if got.State == StateFailed && got.FailureClass == "" {
			t.Fatalf("%s failed without a failure class", id)
		}
	}
}

// TestWorkerInvarianceUnderFaults pins the robustness determinism contract:
// an identical admission + fault-step timeline produces identical terminal
// states, failure classes, and code counts for every worker count.
func TestWorkerInvarianceUnderFaults(t *testing.T) {
	profile := &faults.Profile{
		FiberCrashProb:   0.05,
		FiberRepairSlots: 10,
		DriftProb:        0.10,
		DriftWindow:      8,
		DriftDecay:       0.95,
		Script:           []faults.ScriptedFault{{Slot: 1, Duration: 50, Node: true, ID: 2}},
	}
	type outcome struct {
		State, Class                 string
		Accepted, Delivered, Success int
		Retries                      int
		Epoch                        int64
	}
	run := func(workers int) map[string]outcome {
		svc, subs := fixture(t, Config{
			Workers:   workers,
			EpochMax:  2,
			Metrics:   telemetry.NewRegistry(),
			FaultTick: -1,
			Faults:    profile,
		})
		var ids []string
		for _, sub := range subs {
			sub.RetryBudget = 2
			st, err := svc.Submit(sub)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		// A fixed timeline: faults advance between epochs exactly the same
		// way in each run.
		for i := 0; i < 3; i++ {
			svc.StepFaults()
		}
		if _, err := svc.StepEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			svc.StepFaults()
		}
		if err := svc.drain(); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]outcome, len(ids))
		for _, id := range ids {
			st, err := svc.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			got[id] = outcome{
				State: st.State, Class: st.FailureClass,
				Accepted: st.AcceptedCodes, Delivered: st.DeliveredCodes,
				Success: st.SuccessCodes, Retries: st.Retries, Epoch: st.Epoch,
			}
		}
		return got
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for id, want := range base {
			if got[id] != want {
				t.Fatalf("workers=%d: transfer %s = %+v, want %+v (1 worker)",
					workers, id, got[id], want)
			}
		}
	}
}

func TestHTTPFaultsEndpoint(t *testing.T) {
	svc, _, srv := apiFixture(t, Config{Metrics: telemetry.NewRegistry(), FaultTick: -1})
	// GET before arming: plane exists, disabled.
	resp, err := http.Get(srv.URL + "/v1/faults")
	if err != nil {
		t.Fatal(err)
	}
	var info FaultInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.State.Enabled {
		t.Fatalf("cold GET /v1/faults = %d enabled=%v", resp.StatusCode, info.State.Enabled)
	}

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/faults", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Invalid script syntax and out-of-range targets are 400s.
	for _, bad := range []string{
		`{"script":"40:laser:3:60"}`,
		fmt.Sprintf(`{"script":"0:fiber:%d:10"}`, svc.Engine().Network().NumFibers()),
		`{"fiber_crash_prob":1.5}`,
		`{nope`,
	} {
		resp := post(bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", bad, resp.StatusCode)
		}
	}
	if svc.FaultState().Enabled {
		t.Fatal("rejected profiles must not arm the plane")
	}
	// A valid scenario arms the plane and echoes back.
	resp2 := post(`{"fiber_crash_prob":0.1,"fiber_repair_slots":5,"script":"0:node:2:50"}`)
	if err := json.NewDecoder(resp2.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !info.State.Enabled {
		t.Fatalf("arming POST = %d enabled=%v", resp2.StatusCode, info.State.Enabled)
	}
	wantScript := faults.Script{{Slot: 0, Duration: 50, Node: true, ID: 2}}
	if info.Profile.FiberCrashProb != 0.1 || !reflect.DeepEqual(info.Profile.Script, wantScript) {
		t.Fatalf("echoed profile = %+v", info.Profile)
	}
	svc.StepFaults()
	if fs := svc.FaultState(); len(fs.DownNodes) != 1 {
		t.Fatalf("scripted node not down after arming via HTTP: %+v", fs)
	}
}

func TestHTTPFailureClassSurfaced(t *testing.T) {
	svc, subs, srv := apiFixture(t, Config{Metrics: telemetry.NewRegistry(), FaultTick: -1})
	if err := svc.SetFaultProfile(faults.Profile{DownFibers: allFiberIDs(svc)}); err != nil {
		t.Fatal(err)
	}
	resp := postTransfer(t, srv.URL, subs[0])
	var st TransferStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := svc.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(srv.URL + "/v1/transfers/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got TransferStatus
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.FailureClass != FailNoPath {
		t.Fatalf("GET transfer = %q/%q, want failed/no_path", got.State, got.FailureClass)
	}
}
