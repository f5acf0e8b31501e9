package service

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"surfnet/internal/core"
	"surfnet/internal/faults"
	"surfnet/internal/routing"
	"surfnet/internal/telemetry"
)

// modelFaults is FuzzServiceModel's engine fault profile: fibers crash often
// and stay down for the rest of the transfer, so about two in five attempts
// that get a path run out of slots and take the retry path.
var modelFaults = faults.Profile{FiberCrashProb: 0.2, FiberRepairSlots: 1000}

// modelParams is FuzzServiceModel's planner: the SurfNet design with a
// correction worth 0.1 noise instead of 0.5. A code through admissionNet's
// server must be corrected there (Eq. 4), and at 0.5 that over-corrects its
// 0.22 of Core noise (Eq. 6), so the LP would admit nothing.
func modelParams() routing.Params {
	p := routing.DefaultParams(routing.SurfNet)
	p.Omega = 0.1
	return p
}

// Model op kinds: each op's first input byte, modulo modelOps, picks one.
const (
	opSubmit = iota
	opStepEpoch
	opStepFaults
	opSetFaults
	modelOps
)

const (
	// modelMaxOps bounds one input's op sequence; the drain follows it.
	modelMaxOps = 64
	// modelQueueLimit is small so that inputs reach a full queue and shed.
	modelQueueLimit = 3
)

// Submission fields are drawn from these tables, valid and invalid values
// alike: on admissionNet only nodes 0, 3 and 4 are users, 2 is a server and
// 7 is out of range.
var (
	modelEndpoints = [...]int{0, 3, 4, 0, 3, 4, 2, 7}
	modelDeadlines = [...]int64{0, 0, 0, 3, 12, 60_000, -1, maxDeadlineMs + 1}
	modelTenants   = [...]string{"", "a", "b", "a.b"}
)

// modelInput reads op bytes; an exhausted input reads as zeros.
type modelInput struct {
	b []byte
	i int
}

func (in *modelInput) more() bool { return in.i < len(in.b) }

func (in *modelInput) next() byte {
	if in.i >= len(in.b) {
		return 0
	}
	in.i++
	return in.b[in.i-1]
}

// modelRequest decodes one submission from four bytes and reports whether
// Submit must accept its fields.
func modelRequest(in *modelInput) (TransferRequest, bool) {
	e, msgs, budget, d := in.next(), in.next(), in.next(), in.next()
	req := TransferRequest{
		Tenant:      modelTenants[d>>3&3],
		Src:         modelEndpoints[e&7],
		Dst:         modelEndpoints[e>>3&7],
		Messages:    int(msgs%5) - 1,
		RetryBudget: int(budget%11) - 1,
		DeadlineMs:  modelDeadlines[d&7],
	}
	user := func(v int) bool { return v == 0 || v == 3 || v == 4 }
	valid := user(req.Src) && user(req.Dst) && req.Src != req.Dst && req.Messages > 0 &&
		req.RetryBudget >= 0 && req.RetryBudget <= maxRetryBudget &&
		req.DeadlineMs >= 0 && req.DeadlineMs <= maxDeadlineMs
	return req, valid
}

// modelProfile decodes one live fault scenario from two bytes: cleared, a
// one-entry script, a static fiber outage, or stochastic fiber crashes.
// Fiber 4 and node 5 are out of range, so some scenarios are refused.
func modelProfile(in *modelInput) faults.Profile {
	k, v := in.next(), in.next()
	switch k % 4 {
	case 1:
		return faults.Profile{Script: faults.Script{{
			Slot: int(v & 1), Duration: 1 + int(v>>1&3), Node: v&8 != 0, ID: int(v>>4) % 6,
		}}}
	case 2:
		return faults.Profile{DownFibers: []int{int(v % 5)}}
	case 3:
		return faults.Profile{FiberCrashProb: 0.5, FiberRepairSlots: 1 + int(v%3)}
	}
	return faults.Profile{}
}

// serviceModel is the fuzz oracle's view of one service: what it admitted
// and shed, each admission's retry budget, and the terminal state each
// transfer first reached.
type serviceModel struct {
	svc      *Service
	reg      *telemetry.Registry
	ids      []string
	budget   map[string]int
	terminal map[string]string
	shed     int64
}

// submit submits req and checks the admission decision against the model: a
// valid request is admitted while the queue has room and shed once it is
// full; an invalid one is refused and counted nowhere.
func (m *serviceModel) submit(t *testing.T, req TransferRequest, valid bool) {
	t.Helper()
	full := m.svc.Status().QueueDepth >= modelQueueLimit
	st, err := m.svc.Submit(req)
	switch {
	case !valid:
		if err == nil || errors.Is(err, ErrQueueFull) {
			t.Fatalf("invalid request %+v: err %v, want a validation error", req, err)
		}
	case full:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("request %+v at a full queue: err %v, want ErrQueueFull", req, err)
		}
		m.shed++
	case err != nil:
		t.Fatalf("valid request %+v with queue room refused: %v", req, err)
	default:
		m.ids = append(m.ids, st.ID)
		m.budget[st.ID] = req.RetryBudget
	}
}

// check runs the per-op oracle.
func (m *serviceModel) check(t *testing.T, op int) {
	t.Helper()
	st := m.svc.Status()
	if st.Admitted != st.Completed+st.Failed+int64(st.QueueDepth)+int64(st.Retrying) {
		t.Fatalf("op %d: admitted %d != completed %d + failed %d + queued %d + retrying %d",
			op, st.Admitted, st.Completed, st.Failed, st.QueueDepth, st.Retrying)
	}
	for name, want := range map[string]int64{
		"service.admitted": st.Admitted, "service.completed": st.Completed,
		"service.failed": st.Failed, "service.shed": st.Shed,
	} {
		if got := m.reg.Counter(name).Value(); got != want {
			t.Fatalf("op %d: counter %s = %d, Status total %d", op, name, got, want)
		}
	}
	if st.Admitted != int64(len(m.ids)) || st.Shed != m.shed {
		t.Fatalf("op %d: Status admitted %d shed %d, model %d and %d", op, st.Admitted, st.Shed, len(m.ids), m.shed)
	}
	states := map[string]int{}
	for _, id := range m.ids {
		ts, err := m.svc.Get(id)
		if err != nil {
			t.Fatalf("op %d: admitted %s: %v", op, id, err)
		}
		states[ts.State]++
		if ts.Retries > m.budget[id] {
			t.Fatalf("op %d: %s retried %d times on a budget of %d", op, id, ts.Retries, m.budget[id])
		}
		if was, ok := m.terminal[id]; ok && ts.State != was {
			t.Fatalf("op %d: terminal %s moved from %s to %s", op, id, was, ts.State)
		}
		if ts.State == StateCompleted || ts.State == StateFailed {
			m.terminal[id] = ts.State
		}
	}
	if states[StateQueued] != st.QueueDepth || states[StateRetrying] != st.Retrying ||
		int64(states[StateCompleted]) != st.Completed || int64(states[StateFailed]) != st.Failed {
		t.Fatalf("op %d: transfer states %v disagree with Status %+v", op, states, st)
	}
}

// checkDrained runs the oracle after the drain: nothing pending, every
// admitted transfer terminal, and exact flight attribution for each.
func (m *serviceModel) checkDrained(t *testing.T) {
	t.Helper()
	m.check(t, -1)
	if st := m.svc.Status(); st.QueueDepth != 0 || st.Retrying != 0 {
		t.Fatalf("after the drain: queue %d, retrying %d", st.QueueDepth, st.Retrying)
	}
	for _, id := range m.ids {
		ts, _ := m.svc.Get(id)
		if _, ok := m.terminal[id]; !ok {
			t.Fatalf("after the drain: %s is %s", id, ts.State)
		}
		tr, err := m.svc.Trace(id)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, seg := range tr.Segments {
			sum += seg.WallNs
		}
		if sum != tr.TotalWallNs || float64(tr.TotalWallNs)/1e9 != ts.WallLatencySeconds {
			t.Fatalf("%s: segments sum to %d ns, total_wall_ns %d, wall_latency_seconds %v",
				id, sum, tr.TotalWallNs, ts.WallLatencySeconds)
		}
	}
}

// FuzzServiceModel drives a fresh service per input through at most
// modelMaxOps operations decoded from the input, then drains it. The ops
// are Submit (endpoints, messages, retry_budget, deadline_ms and tenant,
// valid or not), StepEpoch, StepFaults, and SetFaultProfile with a short
// scenario. Epochs execute under modelFaults, so attempts fail and retry;
// the flight clock advances 1 ms per read, so short deadlines expire. The
// oracle (serviceModel):
//   - after every op, admitted == completed + failed + queued + retrying,
//     the registry's service.admitted, completed, failed and shed counters
//     equal the Status totals, admission and shedding match the model, the
//     per-transfer states tally with Status, retries stay within each
//     budget, and a terminal state never changes;
//   - after the drain, nothing is queued or retrying, every admitted
//     transfer is terminal, and its trace segments sum to total_wall_ns,
//     which equals its wall_latency_seconds.
func FuzzServiceModel(f *testing.F) {
	ecfg := core.DefaultConfig()
	ecfg.Faults = &modelFaults
	eng, err := core.NewEngine(admissionNet(f), ecfg)
	if err != nil {
		f.Fatal(err)
	}
	pl := routing.NewPlanner(modelParams())
	f.Fuzz(func(t *testing.T, ops []byte) {
		reg := telemetry.NewRegistry()
		clock := &testClock{}
		svc, err := New(eng, pl, Config{
			QueueLimit: modelQueueLimit, EpochMax: 2, Workers: 1, Metrics: reg,
			FaultTick: -1, FlightClock: clock.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := &serviceModel{svc: svc, reg: reg, budget: map[string]int{}, terminal: map[string]string{}}
		in := &modelInput{b: ops}
		for op := 0; op < modelMaxOps && in.more(); op++ {
			switch in.next() % modelOps {
			case opSubmit:
				req, valid := modelRequest(in)
				m.submit(t, req, valid)
			case opStepEpoch:
				// Epoch errors are reported after the batch is settled, so
				// the accounting holds either way.
				_, _ = svc.StepEpoch(context.Background())
			case opStepFaults:
				svc.StepFaults()
			case opSetFaults:
				p := modelProfile(in)
				before := svc.FaultProfile()
				if err := svc.SetFaultProfile(p); err != nil && !reflect.DeepEqual(svc.FaultProfile(), before) {
					t.Fatalf("op %d: refused profile %+v replaced the armed one", op, p)
				}
			}
			m.check(t, op)
		}
		if err := svc.drain(); err != nil {
			t.Logf("drain: %v", err)
		}
		m.checkDrained(t)
	})
}
