package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"surfnet/internal/faults"
	"surfnet/internal/telemetry"
)

// testClock is a deterministic monotonic clock advancing 1ms per read, safe
// for concurrent use (Submit and epoch workers read it in parallel).
type testClock struct{ ns int64 }

func (c *testClock) Now() time.Time {
	return time.Unix(0, atomic.AddInt64(&c.ns, int64(time.Millisecond)))
}

// TestTraceRetriedThenCompletedUnderFaults is the acceptance test: a transfer
// that retries under an active fault scenario and then completes must expose
// a complete ordered timeline whose attributed segments sum exactly to its
// admission-to-completion wall time.
func TestTraceRetriedThenCompletedUnderFaults(t *testing.T) {
	clock := &testClock{}
	svc, subs := fixture(t, Config{
		Metrics:     telemetry.NewRegistry(),
		FaultTick:   -1,
		FlightClock: clock.Now,
	})
	// Every fiber down: the first attempt finds no path and retries. The
	// outage is live at plan time, so the attempt is fault-coincident and
	// the re-queue wait is attributed as fault stall, not plain backoff.
	if err := svc.SetFaultProfile(faults.Profile{DownFibers: allFiberIDs(svc)}); err != nil {
		t.Fatal(err)
	}
	sub := subs[0]
	sub.RetryBudget = 3
	st, err := svc.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _ := svc.Get(st.ID); got.State != StateRetrying {
		t.Fatalf("state after faulted epoch = %q, want retrying", got.State)
	}
	// Lift the outage; the retry completes once its backoff elapses.
	if err := svc.SetFaultProfile(faults.Profile{}); err != nil {
		t.Fatal(err)
	}
	final := stepUntilTerminal(t, svc, st.ID, 10)
	if final.State != StateCompleted {
		t.Fatalf("final state = %q (%s), want completed", final.State, final.Error)
	}
	if final.Retries == 0 {
		t.Fatal("transfer completed without retrying — scenario did not exercise the retry path")
	}

	tr, err := svc.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != st.ID || tr.State != StateCompleted || tr.Retries != final.Retries {
		t.Fatalf("trace header = %+v", tr)
	}
	// Complete ordered timeline: gap-free seqs, nondecreasing stamps,
	// admitted first, terminal("completed") last, with the retry lifecycle
	// (fault-coincident attempt, retry scheduled) in between.
	kinds := map[string]int{}
	for i, ev := range tr.Events {
		kinds[ev.Kind]++
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if i > 0 && ev.WallNs < tr.Events[i-1].WallNs {
			t.Fatalf("wall stamps regress at event %d", i)
		}
	}
	if tr.Events[0].Kind != "admitted" {
		t.Fatalf("first event = %q, want admitted", tr.Events[0].Kind)
	}
	last := tr.Events[len(tr.Events)-1]
	if last.Kind != "terminal" || last.Note != "completed" {
		t.Fatalf("last event = %q/%q, want terminal/completed", last.Kind, last.Note)
	}
	for _, want := range []string{"queue_enter", "queue_exit", "epoch_assigned", "fault_coincident", "planned", "executed", "retry_scheduled", "decode_verdict"} {
		if kinds[want] == 0 {
			t.Fatalf("timeline missing %q events: %v", want, kinds)
		}
	}

	// The segment-sum contract, exact to the nanosecond: attributed wall
	// time telescopes over consecutive event stamps.
	var segSum, tickSum int64
	seen := map[string]bool{}
	for _, seg := range tr.Segments {
		segSum += seg.WallNs
		tickSum += seg.Ticks
		seen[seg.Class] = true
	}
	if segSum != tr.TotalWallNs {
		t.Fatalf("segments sum to %dns, total is %dns", segSum, tr.TotalWallNs)
	}
	if tickSum != tr.TotalTicks {
		t.Fatalf("segment ticks sum to %d, total is %d", tickSum, tr.TotalTicks)
	}
	if !seen[SegQueueWait] || !seen[SegPlan] || !seen[SegExecute] {
		t.Fatalf("core segments missing: %+v", tr.Segments)
	}
	if !seen[SegFaultStall] {
		t.Fatalf("fault-coincident retry must be attributed as fault_stall, got %+v", tr.Segments)
	}
	if seen[SegRetryBackoff] {
		t.Fatalf("every retry here was fault-coincident; retry_backoff must be absent: %+v", tr.Segments)
	}
	// The status wall latency is derived from the same stamps.
	if final.WallLatencySeconds != tr.TotalSeconds {
		t.Fatalf("status wall %.9fs != trace total %.9fs", final.WallLatencySeconds, tr.TotalSeconds)
	}

	// Terminal segments land on the /status attribution block and the
	// per-segment HDRs.
	status := svc.Status()
	if status.Attribution[SegFaultStall].Count == 0 || status.Attribution[SegExecute].Count == 0 {
		t.Fatalf("status attribution missing segments: %+v", status.Attribution)
	}
}

// TestAttributionClassifiesBackoffWithoutFaults pins the retry_backoff vs
// fault_stall split: a retry whose failing attempt ran with no live outage is
// the transfer's own backoff, not a fault stall.
func TestAttributionClassifiesBackoffWithoutFaults(t *testing.T) {
	events := []telemetry.FlightEvent{
		{Seq: 0, Kind: telemetry.FlightAdmitted, Tick: 0, WallNs: 0},
		{Seq: 1, Kind: telemetry.FlightQueueEnter, Tick: 0, WallNs: 1},
		{Seq: 2, Kind: telemetry.FlightQueueExit, Tick: 0, WallNs: 10},
		{Seq: 3, Kind: telemetry.FlightPlanned, Tick: 0, WallNs: 15},
		{Seq: 4, Kind: telemetry.FlightExecuted, Tick: 0, WallNs: 25},
		{Seq: 5, Kind: telemetry.FlightRetryScheduled, Tick: 0, WallNs: 26},
		{Seq: 6, Kind: telemetry.FlightQueueExit, Tick: 2, WallNs: 50},
		{Seq: 7, Kind: telemetry.FlightPlanned, Tick: 2, WallNs: 55},
		{Seq: 8, Kind: telemetry.FlightExecuted, Tick: 2, WallNs: 70},
		{Seq: 9, Kind: telemetry.FlightTerminal, Tick: 2, WallNs: 71, Note: "completed"},
	}
	a := attribute(events)
	if a.wallNs[SegQueueWait] != 10 {
		t.Fatalf("queue_wait = %d, want 10", a.wallNs[SegQueueWait])
	}
	if a.wallNs[SegRetryBackoff] != 24 {
		t.Fatalf("retry_backoff = %d, want 24 (26..50)", a.wallNs[SegRetryBackoff])
	}
	if a.wallNs[SegFaultStall] != 0 {
		t.Fatalf("fault_stall = %d, want 0 without fault-coincident attempts", a.wallNs[SegFaultStall])
	}
	if a.wallNs[SegPlan] != 10 || a.wallNs[SegExecute] != 27 {
		t.Fatalf("plan/execute = %d/%d, want 10/27", a.wallNs[SegPlan], a.wallNs[SegExecute])
	}
	var sum int64
	for _, v := range a.wallNs {
		sum += v
	}
	if sum != 71 {
		t.Fatalf("attribution sums to %d, want 71", sum)
	}
}

func TestTraceUnknownTransfer(t *testing.T) {
	svc, _ := fixture(t, Config{FaultTick: -1})
	if _, err := svc.Trace("t-404"); !errors.Is(err, ErrUnknownTransfer) {
		t.Fatalf("Trace(unknown) = %v, want ErrUnknownTransfer", err)
	}
}

// TestFlightCompleteAtRetryCap pins the flight-length bound: a transfer at
// the retry cap whose every attempt runs fault-coincident and fails after
// decoding records 2 + 7×9 = 65 events, and its trace keeps all of them, so
// the attribution covers admission to terminal with the five live classes.
func TestFlightCompleteAtRetryCap(t *testing.T) {
	clock := &testClock{}
	// Every fiber crashes at once and stays down, so no code is ever
	// delivered and every attempt fails after execution.
	svc, subs := fixtureWith(t, &faults.Profile{FiberCrashProb: 1, FiberRepairSlots: 100000}, Config{
		FaultTick:   -1,
		FlightClock: clock.Now,
	})
	sub := subs[0]
	// A live outage of a bystander user node makes every attempt
	// fault-coincident without cutting the transfer's own path.
	bystander := -1
	for _, other := range subs[1:] {
		for _, v := range []int{other.Src, other.Dst} {
			if bystander < 0 && v != sub.Src && v != sub.Dst {
				bystander = v
			}
		}
	}
	if err := svc.SetFaultProfile(faults.Profile{DownNodes: []int{bystander}}); err != nil {
		t.Fatal(err)
	}
	sub.RetryBudget = maxRetryBudget
	st, err := svc.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	final := stepUntilTerminal(t, svc, st.ID, 100)
	if final.State != StateFailed || final.Retries != maxRetryBudget {
		t.Fatalf("final = %+v, want failed after %d retries", final, maxRetryBudget)
	}
	tr, err := svc.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 65 {
		t.Fatalf("trace holds %d events, want 2 + 7×9 = 65", len(tr.Events))
	}
	for i, ev := range tr.Events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if first, last := tr.Events[0], tr.Events[64]; first.Kind != "admitted" || last.Kind != "terminal" {
		t.Fatalf("trace runs %q .. %q, want admitted .. terminal", first.Kind, last.Kind)
	}
	var sum int64
	for _, seg := range tr.Segments {
		switch seg.Class {
		case SegQueueWait, SegPlan, SegExecute, SegRetryBackoff, SegFaultStall:
		default:
			t.Fatalf("segment class %q outside the five live classes", seg.Class)
		}
		sum += seg.WallNs
	}
	if sum != tr.TotalWallNs {
		t.Fatalf("segments sum to %dns, total is %dns", sum, tr.TotalWallNs)
	}
	if final.WallLatencySeconds != tr.TotalSeconds || tr.TotalSeconds != float64(tr.TotalWallNs)/1e9 {
		t.Fatalf("status wall %.9fs, trace total %.9fs (%dns)", final.WallLatencySeconds, tr.TotalSeconds, tr.TotalWallNs)
	}
}

// TestWorkerInvarianceWithFlights pins the side-effect-freedom contract:
// identical admission + fault timelines produce identical terminal outcomes
// and identical flight timelines (every event but its wall stamp) for every
// worker count.
func TestWorkerInvarianceWithFlights(t *testing.T) {
	profile := &faults.Profile{
		FiberCrashProb:   0.05,
		FiberRepairSlots: 10,
		Script:           []faults.ScriptedFault{{Slot: 1, Duration: 50, Node: true, ID: 2}},
	}
	type outcome struct {
		State, Class                 string
		Accepted, Delivered, Success int
		Retries                      int
		Epoch                        int64
		Timeline                     string
	}
	run := func(workers int) map[string]outcome {
		svc, subs := fixture(t, Config{
			Workers:   workers,
			EpochMax:  2,
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
		for i := 0; i < 3; i++ {
			svc.StepFaults()
		}
		if _, err := svc.StepEpoch(context.Background()); err != nil {
			t.Fatal(err)
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
			tr, err := svc.Trace(id)
			if err != nil {
				t.Fatal(err)
			}
			var timeline strings.Builder
			for _, ev := range tr.Events {
				fmt.Fprintf(&timeline, "%d:%s@%d/%s%v;", ev.Seq, ev.Kind, ev.Tick, ev.Note, ev.Detail)
			}
			got[id] = outcome{
				State: st.State, Class: st.FailureClass,
				Accepted: st.AcceptedCodes, Delivered: st.DeliveredCodes,
				Success: st.SuccessCodes, Retries: st.Retries, Epoch: st.Epoch,
				Timeline: timeline.String(),
			}
		}
		return got
	}
	base := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for id, want := range base {
			if got[id] != want {
				t.Fatalf("workers=%d: transfer %s = %+v, want %+v (1 worker)",
					workers, id, got[id], want)
			}
		}
	}
}

// TestQueuePressureVisibleInStatus is the satellite-2 regression test: depth
// sampling and queue-wait quantiles must surface on /status before any shed.
func TestQueuePressureVisibleInStatus(t *testing.T) {
	clock := &testClock{}
	reg := telemetry.NewRegistry()
	svc, subs := fixture(t, Config{Metrics: reg, FaultTick: -1, FlightClock: clock.Now})
	for _, sub := range subs {
		if _, err := svc.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Status()
	if st.Queue == nil || st.Queue.Depth != len(subs) {
		t.Fatalf("queue block = %+v, want depth %d", st.Queue, len(subs))
	}
	if st.Queue.Samples == 0 || st.Queue.DepthP99 < 1 {
		t.Fatalf("depth sampling empty before epoch: %+v", st.Queue)
	}
	if g := reg.Gauge("service.queue_depth").Value(); g != float64(len(subs)) {
		t.Fatalf("queue depth gauge = %v, want %d", g, len(subs))
	}
	if _, err := svc.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = svc.Status()
	if st.Queue.WaitP50Seconds <= 0 || st.Queue.WaitP99Seconds < st.Queue.WaitP50Seconds {
		t.Fatalf("queue-wait quantiles = %+v", st.Queue)
	}
	if reg.HDR("service.queue_wait_wall_seconds", telemetry.WallLatencySpec).Count() != int64(len(subs)) {
		t.Fatal("queue-wait HDR must observe each first dispatch")
	}
}

// TestRetryAfterClampBoundaries is the satellite-3 regression test for the
// [1, 30] clamp and the empty-HDR fallback.
func TestRetryAfterClampBoundaries(t *testing.T) {
	svc, _ := fixture(t, Config{Metrics: telemetry.NewRegistry(), FaultTick: -1})
	if got := svc.RetryAfterHint(); got != 1 {
		t.Fatalf("empty-HDR hint = %d, want fallback 1", got)
	}
	// Sub-second epochs clamp up to the floor of 1.
	for i := 0; i < 20; i++ {
		svc.epochWall.Observe(0.01)
	}
	if got := svc.RetryAfterHint(); got != 1 {
		t.Fatalf("fast-epoch hint = %d, want 1", got)
	}
	// A p50 far past the ceiling clamps down to 30.
	for i := 0; i < 200; i++ {
		svc.epochWall.Observe(500)
	}
	if got := svc.RetryAfterHint(); got != 30 {
		t.Fatalf("slow-epoch hint = %d, want clamp 30", got)
	}
}

// TestConcurrentSubmitStepFlightOrdering drives admissions concurrently with
// epoch execution and checks every flight stays internally consistent:
// gap-free seqs, monotone stamps, segments summing to the total. Run under
// -race in CI.
func TestConcurrentSubmitStepFlightOrdering(t *testing.T) {
	svc, subs := fixture(t, Config{EpochMax: 2, FaultTick: -1})
	var ids []string
	var idMu sync.Mutex
	stop := make(chan struct{})
	stepperDone := make(chan struct{})
	go func() {
		defer close(stepperDone)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := svc.StepEpoch(context.Background()); err != nil {
					return
				}
			}
		}
	}()
	var submitters sync.WaitGroup
	for i := 0; i < 4; i++ {
		submitters.Add(1)
		go func(i int) {
			defer submitters.Done()
			for j := 0; j < 5; j++ {
				st, err := svc.Submit(subs[(i+j)%len(subs)])
				if err != nil {
					continue
				}
				idMu.Lock()
				ids = append(ids, st.ID)
				idMu.Unlock()
			}
		}(i)
	}
	// Stop the stepper once every submitter is done, then drain stragglers.
	submitters.Wait()
	close(stop)
	<-stepperDone
	if err := svc.drain(); err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no transfers admitted")
	}
	for _, id := range ids {
		tr, err := svc.Trace(id)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range tr.Events {
			if ev.Seq != uint64(i) {
				t.Fatalf("%s event %d has seq %d", id, i, ev.Seq)
			}
			if i > 0 && ev.WallNs < tr.Events[i-1].WallNs {
				t.Fatalf("%s wall stamps regress at event %d", id, i)
			}
		}
		var sum int64
		for _, seg := range tr.Segments {
			sum += seg.WallNs
		}
		if sum != tr.TotalWallNs {
			t.Fatalf("%s segments sum %d != total %d", id, sum, tr.TotalWallNs)
		}
	}
}

// TestHTTPTraceAndBundle covers the new observability endpoints end to end.
func TestHTTPTraceAndBundle(t *testing.T) {
	svc, subs, srv := apiFixture(t, Config{Metrics: telemetry.NewRegistry(), FaultTick: -1})
	resp := postTransfer(t, srv.URL, subs[0])
	var st TransferStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := svc.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp2, err := http.Get(srv.URL + "/v1/transfers/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d, want 200", resp2.StatusCode)
	}
	var tr FlightTrace
	if err := json.NewDecoder(resp2.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != st.ID || len(tr.Events) == 0 || tr.Events[0].Kind != "admitted" {
		t.Fatalf("trace = %+v", tr)
	}

	resp3, err := http.Get(srv.URL + "/v1/transfers/t-404/trace")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp3.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound || eb.Error == "" {
		t.Fatalf("unknown trace = %d %q, want JSON 404 envelope", resp3.StatusCode, eb.Error)
	}

	resp4, err := http.Get(srv.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/bundle = %d, want 200", resp4.StatusCode)
	}
	var bundle DebugBundle
	if err := json.NewDecoder(resp4.Body).Decode(&bundle); err != nil {
		t.Fatal(err)
	}
	if bundle.Status.Completed != 1 || len(bundle.Flights) != 1 {
		t.Fatalf("bundle = completed %d, %d flights; want 1, 1", bundle.Status.Completed, len(bundle.Flights))
	}
	if bundle.Flights[0].ID != st.ID || bundle.Flights[0].State != StateCompleted {
		t.Fatalf("bundled flight = %+v", bundle.Flights[0])
	}
	if len(bundle.Metrics.Counters) == 0 {
		t.Fatal("bundle metrics snapshot empty")
	}
}

// TestBundleCarriesLastTerminalFlights pins the incident window: once more
// than bundleFlights transfers are terminal, /debug/bundle carries exactly
// the most recent bundleFlights of them, oldest first, each a complete
// flight from admitted to terminal.
func TestBundleCarriesLastTerminalFlights(t *testing.T) {
	svc, subs := fixture(t, Config{EpochMax: 4, FaultTick: -1})
	const n = bundleFlights + 8
	for i := 0; i < n; i++ {
		if _, err := svc.Submit(subs[i%len(subs)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.drain(); err != nil {
		t.Fatal(err)
	}
	flights := svc.Bundle().Flights
	if len(flights) != bundleFlights {
		t.Fatalf("bundle carries %d flights, want %d", len(flights), bundleFlights)
	}
	// Epochs take the queue in admission order and, with no retry budget,
	// every attempt is terminal, so the window is the last bundleFlights
	// admissions.
	for i, tr := range flights {
		if want := fmt.Sprintf("t-%d", n-bundleFlights+1+i); tr.ID != want {
			t.Fatalf("flight %d is %s, want %s (oldest first)", i, tr.ID, want)
		}
		if tr.Events[0].Kind != "admitted" || tr.Events[len(tr.Events)-1].Kind != "terminal" {
			t.Fatalf("%s runs %q .. %q", tr.ID, tr.Events[0].Kind, tr.Events[len(tr.Events)-1].Kind)
		}
	}
}

// TestHTTPUnknownPathJSON404 is the satellite-1 regression test: unmatched
// /v1/ paths (and unknown transfer IDs) answer with the JSON error envelope,
// never the mux's bare text 404.
func TestHTTPUnknownPathJSON404(t *testing.T) {
	_, _, srv := apiFixture(t, Config{FaultTick: -1})
	for _, path := range []string{"/v1/transfers/t-404", "/v1/nope", "/v1/transfers/t-1/unknown"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s content-type = %q, want application/json", path, ct)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil || eb.Error == "" {
			t.Fatalf("GET %s: body is not the JSON error envelope (err=%v, %+v)", path, err, eb)
		}
	}
}
