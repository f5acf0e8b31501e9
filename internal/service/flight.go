package service

import "surfnet/internal/telemetry"

// Latency attribution decomposes a transfer's admission-to-terminal wall time
// into named segments by walking its flight events in order. Segments are
// telescoping: each recorded event closes the interval since the previous one
// and charges it to exactly one class, so the per-class sums always add up to
// the transfer's total wall time to the nanosecond — no double counting, no
// unattributed gaps (the "±1 tick" acceptance bound is conservative; the
// implementation is exact, because a flight keeps every event it records).

// Segment classes. Every nanosecond between a flight's first and last event
// lands in exactly one of these.
const (
	// SegQueueWait is admission to first epoch dispatch: time spent in the
	// bounded queue before the transfer's first attempt.
	SegQueueWait = "queue_wait"
	// SegPlan is epoch dispatch to plan completion: LP (or greedy) routing.
	SegPlan = "plan"
	// SegExecute is plan completion to attempt verdict: engine execution and
	// decode.
	SegExecute = "execute"
	// SegRetryBackoff is attempt failure to next dispatch for retries whose
	// failing attempt ran without live faults in effect.
	SegRetryBackoff = "retry_backoff"
	// SegFaultStall is the same re-queue interval when the failing attempt
	// was fault-coincident: time lost waiting out an outage, not the
	// transfer's own backoff policy.
	SegFaultStall = "fault_stall"
)

// segmentClasses is the canonical order segments render in.
var segmentClasses = [...]string{
	SegQueueWait, SegPlan, SegExecute, SegRetryBackoff, SegFaultStall,
}

// attribution is the per-class accumulation for one flight.
type attribution struct {
	wallNs map[string]int64
	ticks  map[string]int64
}

// attribute walks a flight's events and charges every inter-event interval,
// from the first event (admission) on, to a segment class.
func attribute(events []telemetry.FlightEvent) attribution {
	a := attribution{wallNs: make(map[string]int64), ticks: make(map[string]int64)}
	if len(events) == 0 {
		return a
	}
	prevWall, prevTick := events[0].WallNs, events[0].Tick
	// pendingWait classifies time spent off-epoch (queued or backing off);
	// it flips from queue_wait to retry_backoff/fault_stall after the first
	// retry_scheduled. inAttempt and sawExec track where inside an attempt
	// the flight currently is; faultAttempt marks the attempt fault-coincident
	// so a subsequent re-queue is charged as fault stall.
	pendingWait := SegQueueWait
	inAttempt := false
	sawExec := false
	faultAttempt := false
	charge := func(class string, ev telemetry.FlightEvent) {
		a.wallNs[class] += ev.WallNs - prevWall
		a.ticks[class] += ev.Tick - prevTick
		prevWall, prevTick = ev.WallNs, ev.Tick
	}
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.FlightAdmitted, telemetry.FlightQueueEnter:
			charge(pendingWait, ev)
		case telemetry.FlightQueueExit, telemetry.FlightEpochAssigned:
			charge(pendingWait, ev)
			inAttempt, sawExec, faultAttempt = true, false, false
		case telemetry.FlightPlanned:
			charge(SegPlan, ev)
		case telemetry.FlightFaultCoincident:
			charge(SegPlan, ev)
			faultAttempt = true
		case telemetry.FlightExecuted, telemetry.FlightDecodeVerdict:
			charge(SegExecute, ev)
			sawExec = true
		case telemetry.FlightRetryScheduled:
			if sawExec {
				charge(SegExecute, ev)
			} else {
				charge(SegPlan, ev)
			}
			if faultAttempt {
				pendingWait = SegFaultStall
			} else {
				pendingWait = SegRetryBackoff
			}
			inAttempt = false
		case telemetry.FlightTerminal:
			switch {
			case sawExec:
				charge(SegExecute, ev)
			case inAttempt:
				charge(SegPlan, ev)
			default:
				charge(pendingWait, ev)
			}
		default:
			charge(pendingWait, ev)
		}
	}
	return a
}

// Segment is one attributed slice of a transfer's wall time.
type Segment struct {
	Class   string  `json:"class"`
	Ticks   int64   `json:"ticks"`
	WallNs  int64   `json:"wall_ns"`
	Seconds float64 `json:"seconds"`
}

// TraceEvent is one flight event rendered for the /trace API.
type TraceEvent struct {
	Seq    uint64           `json:"seq"`
	Kind   string           `json:"kind"`
	Tick   int64            `json:"tick"`
	WallNs int64            `json:"wall_ns"`
	Note   string           `json:"note,omitempty"`
	Detail map[string]int64 `json:"detail,omitempty"`
}

// FlightTrace is the GET /v1/transfers/{id}/trace response: the transfer's
// full ordered timeline plus its latency attribution.
type FlightTrace struct {
	ID           string `json:"id"`
	Tenant       string `json:"tenant,omitempty"`
	State        string `json:"state"`
	FailureClass string `json:"failure_class,omitempty"`
	Epoch        int64  `json:"epoch,omitempty"`
	Retries      int    `json:"retries,omitempty"`
	// Events is the full timeline, oldest first, gap-free in seq.
	Events []TraceEvent `json:"events"`
	// Segments attribute the admission-to-latest-event interval; their
	// WallNs values sum exactly to TotalWallNs.
	Segments     []Segment `json:"segments"`
	TotalTicks   int64     `json:"total_ticks"`
	TotalWallNs  int64     `json:"total_wall_ns"`
	TotalSeconds float64   `json:"total_seconds"`
}

// eventDetail renders a flight event's kind-specific arguments under stable
// JSON keys.
func eventDetail(ev telemetry.FlightEvent) map[string]int64 {
	switch ev.Kind {
	case telemetry.FlightQueueEnter, telemetry.FlightQueueExit:
		return map[string]int64{"queue_depth": ev.A}
	case telemetry.FlightEpochAssigned:
		return map[string]int64{"epoch": ev.A}
	case telemetry.FlightPlanned:
		return map[string]int64{"batch": ev.A}
	case telemetry.FlightFaultCoincident:
		return map[string]int64{"down_fibers": ev.A, "down_nodes": ev.B}
	case telemetry.FlightExecuted:
		return map[string]int64{"accepted": ev.A, "delivered": ev.B, "success": ev.C}
	case telemetry.FlightDecodeVerdict:
		return map[string]int64{"delivered": ev.A, "success": ev.B}
	case telemetry.FlightRetryScheduled:
		return map[string]int64{"backoff_epochs": ev.A, "not_before_epoch": ev.B}
	}
	return nil
}

// trace renders a transfer's flight plus its status into the wire form. The
// caller holds s.mu, which guards the status.
func (t *transfer) trace() FlightTrace {
	events := t.flight.Events()
	st := t.status
	tr := FlightTrace{
		ID:           st.ID,
		Tenant:       st.Tenant,
		State:        st.State,
		FailureClass: st.FailureClass,
		Epoch:        st.Epoch,
		Retries:      st.Retries,
		Events:       make([]TraceEvent, 0, len(events)),
	}
	for _, ev := range events {
		tr.Events = append(tr.Events, TraceEvent{
			Seq:    ev.Seq,
			Kind:   ev.Kind.String(),
			Tick:   ev.Tick,
			WallNs: ev.WallNs,
			Note:   ev.Note,
			Detail: eventDetail(ev),
		})
	}
	a := attribute(events)
	for _, class := range segmentClasses {
		w, ticks := a.wallNs[class], a.ticks[class]
		if w == 0 && ticks == 0 {
			continue
		}
		tr.Segments = append(tr.Segments, Segment{
			Class: class, Ticks: ticks, WallNs: w, Seconds: float64(w) / 1e9,
		})
	}
	if n := len(events); n > 0 {
		tr.TotalWallNs = events[n-1].WallNs - events[0].WallNs
		tr.TotalTicks = events[n-1].Tick - events[0].Tick
		tr.TotalSeconds = float64(tr.TotalWallNs) / 1e9
	}
	return tr
}

// Trace returns a transfer's flight timeline and latency attribution. It
// works for live and terminal transfers alike (a live transfer's trace ends
// at its most recent event). ErrUnknownTransfer maps to 404.
func (s *Service) Trace(id string) (FlightTrace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.transfers[id]
	if !ok {
		return FlightTrace{}, ErrUnknownTransfer
	}
	return t.trace(), nil
}

// DebugBundle is the GET /debug/bundle response: one-shot incident snapshot
// bundling the service status, the full metrics registry, the live fault
// plane, and the last bundleFlights terminal flights with attribution.
type DebugBundle struct {
	Status  Status             `json:"status"`
	Metrics telemetry.Snapshot `json:"metrics"`
	Faults  FaultState         `json:"faults"`
	Flights []FlightTrace      `json:"flights"`
}

// Bundle assembles the incident snapshot. Metrics are empty when the service
// runs without a registry.
func (s *Service) Bundle() DebugBundle {
	b := DebugBundle{
		Status: s.Status(),
		Faults: s.plane.State(),
	}
	if s.cfg.Metrics != nil {
		b.Metrics = s.cfg.Metrics.Snapshot()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Oldest first: once the ring has wrapped, the cursor's slot (the next
	// to be overwritten) holds the oldest; before that, the unfilled slots
	// from the cursor on are nil and skipped.
	b.Flights = make([]FlightTrace, 0, bundleFlights)
	for i := range s.recent {
		if t := s.recent[(s.recentNext+i)%bundleFlights]; t != nil {
			b.Flights = append(b.Flights, t.trace())
		}
	}
	return b
}
