package service

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"surfnet/internal/core"
	"surfnet/internal/decoder"
	"surfnet/internal/faults"
	"surfnet/internal/obs"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/telemetry"
	"surfnet/internal/topology"
)

// fixture builds a service over a generated topology with two user pairs.
func fixture(t *testing.T, cfg Config) (*Service, []TransferRequest) {
	t.Helper()
	return fixtureWith(t, nil, cfg)
}

// fixtureWith is fixture with an engine fault profile (nil: none), the
// stochastic faults every epoch executes under beneath the live overlay.
func fixtureWith(t *testing.T, engineFaults *faults.Profile, cfg Config) (*Service, []TransferRequest) {
	t.Helper()
	src := rng.New(9090)
	net, err := topology.Generate(topology.DefaultParams(topology.Abundant, topology.GoodConnection), src)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := topology.GenRequests(net, 4, 2, src.Split("reqs"))
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultConfig()
	ecfg.Decoder = decoder.SurfNet{}
	ecfg.Faults = engineFaults
	eng, err := core.NewEngine(net, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := routing.NewPlanner(routing.DefaultParams(routing.SurfNet))
	svc, err := New(eng, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var subs []TransferRequest
	for i, r := range reqs {
		tenant := "tenant-a"
		if i%2 == 1 {
			tenant = "tenant-b"
		}
		subs = append(subs, TransferRequest{Tenant: tenant, Src: r.Src, Dst: r.Dst, Messages: r.Messages})
	}
	return svc, subs
}

func TestSubmitAndStepEpochCompletes(t *testing.T) {
	svc, subs := fixture(t, Config{Metrics: telemetry.NewRegistry()})
	var ids []string
	for _, sub := range subs {
		st, err := svc.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			t.Fatalf("state = %q, want queued", st.State)
		}
		ids = append(ids, st.ID)
	}
	n, err := svc.StepEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(subs) {
		t.Fatalf("epoch processed %d, want %d", n, len(subs))
	}
	accepted := 0
	for _, id := range ids {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCompleted {
			t.Fatalf("%s state = %q, want completed", id, st.State)
		}
		if st.WallLatencySeconds <= 0 {
			t.Fatalf("%s wall latency not recorded", id)
		}
		accepted += st.AcceptedCodes
	}
	if accepted == 0 {
		t.Fatal("no codes accepted across the epoch")
	}
	st := svc.Status()
	if st.Completed != int64(len(subs)) || st.QueueDepth != 0 || st.Epochs != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Tenants["tenant-a"].Completed == 0 || st.Tenants["tenant-b"].Completed == 0 {
		t.Fatalf("per-tenant accounting missing: %+v", st.Tenants)
	}
	if st.WallP99 <= 0 {
		t.Fatal("wall p99 not recorded")
	}
}

// TestTenantNamesRenderOneFamily pins that tenants whose names render to one
// Prometheus name share one wall histogram: a metric family declared twice
// makes the whole /metrics scrape invalid.
func TestTenantNamesRenderOneFamily(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, subs := fixture(t, Config{Metrics: reg})
	for i, tenant := range []string{"a.b", "a_b"} {
		sub := subs[i]
		sub.Tenant = tenant
		if _, err := svc.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	families := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families[strings.Fields(line)[2]]++
		}
	}
	for name, n := range families {
		if n > 1 {
			t.Errorf("metric family %s declared %d times", name, n)
		}
	}
	if !strings.Contains(buf.String(), "surfnet_service_tenant_a_b_wall_seconds_count 2\n") {
		t.Errorf("tenants a.b and a_b should share one histogram with 2 observations:\n%s", buf.String())
	}
}

// TestTenantAccountingBounded pins the tenant cardinality cap: shed
// submissions under ever-new tenant names must not grow /status without
// bound. Names past maxTenants share one "other" record, and no shed is lost.
// The service-wide totals are the tenant sums and agree with the counters
// /metrics serves, across completed, failed and shed transfers.
func TestTenantAccountingBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	clock := time.Unix(0, 0)
	svc, subs := fixture(t, Config{QueueLimit: 1, FaultTick: -1, Metrics: reg,
		FlightClock: func() time.Time { return clock }})
	if _, err := svc.Submit(subs[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sub := subs[1]
		sub.Tenant = fmt.Sprintf("tenant-%d", i)
		if _, err := svc.Submit(sub); err != ErrQueueFull {
			t.Fatalf("submission %d: err = %v, want ErrQueueFull", i, err)
		}
	}
	st := svc.Status()
	if len(st.Tenants) > maxTenants+1 {
		t.Fatalf("/status holds %d tenant records, want at most %d", len(st.Tenants), maxTenants+1)
	}
	var shed int64
	for _, ts := range st.Tenants {
		shed += ts.Shed
	}
	if st.Shed != 1000 || shed != st.Shed {
		t.Fatalf("tenant sheds sum to %d, status shed %d, want 1000 each", shed, st.Shed)
	}

	// subs[0] completes; then, with every fiber down, a named tenant and an
	// overflow tenant each fail no_path, and a tenant-a transfer misses its
	// deadline, as step advances the clock past it.
	step := func(sub TransferRequest) {
		t.Helper()
		if _, err := svc.Submit(sub); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(time.Second)
		if _, err := svc.StepEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.StepEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetFaultProfile(faults.Profile{DownFibers: allFiberIDs(svc)}); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"tenant-5", "overflow"} {
		sub := subs[2]
		sub.Tenant = tenant
		step(sub)
	}
	expiring := subs[3]
	expiring.Tenant = subs[0].Tenant
	expiring.DeadlineMs = 1
	step(expiring)

	st = svc.Status()
	sum := TenantStats{FailedByClass: map[string]int64{}}
	for _, ts := range st.Tenants {
		sum.Admitted += ts.Admitted
		sum.Completed += ts.Completed
		sum.Failed += ts.Failed
		sum.Shed += ts.Shed
		for class, n := range ts.FailedByClass {
			sum.FailedByClass[class] += n
		}
	}
	want := TenantStats{Admitted: 4, Completed: 1, Failed: 3, Shed: 1000,
		FailedByClass: map[string]int64{FailNoPath: 2, FailDeadline: 1}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("tenant sums = %+v, want %+v", sum, want)
	}
	got := TenantStats{Admitted: st.Admitted, Completed: st.Completed, Failed: st.Failed,
		Shed: st.Shed, FailedByClass: st.FailedByClass}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("status totals = %+v, want the tenant sums %+v", got, want)
	}
	for name, n := range map[string]int64{
		"service.admitted": 4, "service.completed": 1, "service.failed": 3, "service.shed": 1000,
		"service.failed_no_path": 2, "service.failed_deadline": 1,
	} {
		if v := reg.Counter(name).Value(); v != n {
			t.Fatalf("%s = %d, want %d", name, v, n)
		}
	}
}

func TestQueueFullSheds(t *testing.T) {
	svc, subs := fixture(t, Config{QueueLimit: 2})
	if _, err := svc.Submit(subs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(subs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(subs[2]); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	st := svc.Status()
	if st.Shed != 1 || st.Admitted != 2 {
		t.Fatalf("shed/admitted = %d/%d, want 1/2", st.Shed, st.Admitted)
	}
}

func TestInvalidTransferRejected(t *testing.T) {
	svc, _ := fixture(t, Config{})
	// Src 0 duplicated as Dst: invalid request per network rules.
	if _, err := svc.Submit(TransferRequest{Src: 0, Dst: 0, Messages: 1}); err == nil {
		t.Fatal("self-transfer should be rejected")
	}
	if st := svc.Status(); st.Admitted != 0 {
		t.Fatal("invalid transfer must not count as admitted")
	}
}

// TestDrainCompletesInFlight pins the zero-drop drain contract: cancelling
// Run's context must complete every admitted transfer before Run returns,
// and admissions after the drain begins are refused with ErrDraining.
func TestDrainCompletesInFlight(t *testing.T) {
	svc, subs := fixture(t, Config{EpochMax: 1, Metrics: telemetry.NewRegistry()})
	var ids []string
	for _, sub := range subs {
		st, err := svc.Submit(sub)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Cancel before the loop even starts: Run must still drain the queue.
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
		t.Fatal("drain did not complete")
	}
	select {
	case <-svc.Drained():
	default:
		t.Fatal("Drained channel not closed after Run returned")
	}
	for _, id := range ids {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCompleted {
			t.Fatalf("%s state = %q after drain, want completed", id, st.State)
		}
	}
	if _, err := svc.Submit(subs[0]); err != ErrDraining {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	if st := svc.Status(); !st.Draining || st.Shed != 1 {
		t.Fatalf("post-drain status = %+v", st)
	}
}

func TestDrainHookFiresOnce(t *testing.T) {
	fired := 0
	svc, subs := fixture(t, Config{DrainHook: func() { fired++ }})
	if _, err := svc.Submit(subs[0]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("drain hook fired %d times, want 1", fired)
	}
}

// TestWorkerInvariance pins the daemon determinism contract: identical
// admission sequences produce identical transfer outcomes for every worker
// count, because epochs are seeded by index and executed on the invariant
// parallel engine.
func TestWorkerInvariance(t *testing.T) {
	outcomes := make(map[int][]TransferStatus)
	for _, workers := range []int{1, 2, 4} {
		svc, subs := fixture(t, Config{Workers: workers, Seed: 7})
		var ids []string
		for _, sub := range subs {
			st, err := svc.Submit(sub)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		if _, err := svc.StepEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			st, err := svc.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			st.WallLatencySeconds = 0 // wall time legitimately varies
			outcomes[workers] = append(outcomes[workers], st)
		}
	}
	want := outcomes[1]
	for _, workers := range []int{2, 4} {
		got := outcomes[workers]
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d transfer %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestEpochBatchingSplitsQueue pins that EpochMax bounds each batch and that
// later submissions execute in later epochs with their own rng streams.
func TestEpochBatchingSplitsQueue(t *testing.T) {
	svc, subs := fixture(t, Config{EpochMax: 2})
	for _, sub := range subs {
		if _, err := svc.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	n1, err := svc.StepEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 2 {
		t.Fatalf("first epoch processed %d, want 2", n1)
	}
	n2, err := svc.StepEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 2 {
		t.Fatalf("second epoch processed %d, want 2", n2)
	}
	st := svc.Status()
	if st.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", st.Epochs)
	}
	if _, err := svc.Get("t-3"); err != nil {
		t.Fatal(err)
	}
	third, _ := svc.Get("t-3")
	if third.Epoch != 1 {
		t.Fatalf("third transfer ran in epoch %d, want 1", third.Epoch)
	}
}

func TestRunServesArrivals(t *testing.T) {
	svc, subs := fixture(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Run(ctx) }()
	st, err := svc.Submit(subs[0])
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, err := svc.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == StateCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transfer stuck in %q", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
