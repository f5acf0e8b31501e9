package telemetry

import "sync"

// Flight recording is the request-scoped half of the observability plane:
// where counters and HDR histograms aggregate over the whole process, a
// Flight is one transfer's own append-only event log — every lifecycle step
// (admitted, queued, planned, executed, retried, terminal) stamped with the
// service's tick clock (epoch number) and a monotonic wall clock, so "why was
// *this* transfer slow" is answerable after the fact without correlating
// global streams. The log needs no eviction: its length is bounded by the
// owner's lifecycle (the service's retry cap bounds a transfer to 65 events).
//
// Recording only appends to the flight's own log — it never reads or writes
// simulation state and draws no randomness — which is what makes it provably
// side-effect-free: deterministic outputs stay byte-identical and
// worker-invariant with flights recorded.

// FlightKind enumerates the typed lifecycle events a flight records.
type FlightKind uint8

const (
	// FlightAdmitted is the first event of every flight: the transfer passed
	// admission control and received an ID.
	FlightAdmitted FlightKind = iota
	// FlightQueueEnter marks entry into the admission queue; A carries the
	// queue depth after the enqueue.
	FlightQueueEnter
	// FlightQueueExit marks departure from the queue into an epoch batch; A
	// carries the queue depth left behind.
	FlightQueueExit
	// FlightEpochAssigned binds the transfer to the epoch that will plan and
	// execute it; A carries the epoch number.
	FlightEpochAssigned
	// FlightPlanned marks the end of the epoch's planning step; Note carries
	// the plan mode (warm, cold, degraded) and A the batch size planned.
	FlightPlanned
	// FlightFaultCoincident marks that the attempt ran while the live fault
	// plane had outages in effect; A and B carry the down fiber and node
	// counts of the overlay.
	FlightFaultCoincident
	// FlightExecuted marks the end of the epoch's execution step; A, B, and C
	// carry the transfer's accepted, delivered, and successful code counts.
	FlightExecuted
	// FlightDecodeVerdict summarizes the attempt's end-to-end decode outcome;
	// A and B carry delivered and successful code counts, Note the verdict
	// ("ok" or "failed").
	FlightDecodeVerdict
	// FlightRetryScheduled marks a failed attempt re-queued with backoff; A
	// carries the backoff in epochs, B the earliest epoch the retry may run
	// in, and Note the failure class that caused the retry.
	FlightRetryScheduled
	// FlightTerminal is the last event of every flight; Note carries
	// "completed" or the terminal failure class.
	FlightTerminal
)

// flightKindNames renders kinds for traces and reports.
var flightKindNames = [...]string{
	FlightAdmitted:        "admitted",
	FlightQueueEnter:      "queue_enter",
	FlightQueueExit:       "queue_exit",
	FlightEpochAssigned:   "epoch_assigned",
	FlightPlanned:         "planned",
	FlightFaultCoincident: "fault_coincident",
	FlightExecuted:        "executed",
	FlightDecodeVerdict:   "decode_verdict",
	FlightRetryScheduled:  "retry_scheduled",
	FlightTerminal:        "terminal",
}

func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return "unknown"
}

// FlightEvent is one recorded lifecycle event. Seq is the flight-local
// sequence number (0-based, gap-free), Tick the service's causal clock (epoch
// number) at recording time, and WallNs the flight clock's monotonic
// nanoseconds. A, B, C are kind-specific integer arguments and Note a
// kind-specific constant string.
type FlightEvent struct {
	Seq    uint64
	Kind   FlightKind
	Tick   int64
	WallNs int64
	A      int64
	B      int64
	C      int64
	Note   string
}

// Flight is one transfer's append-only event log. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Flight struct {
	wallNs func() int64

	mu     sync.Mutex
	events []FlightEvent
}

// NewFlight starts an empty flight whose events are stamped by wallNs, a
// monotonic nanosecond clock shared by every flight of one owner so their
// stamps are comparable.
func NewFlight(wallNs func() int64) *Flight {
	return &Flight{wallNs: wallNs}
}

// Record appends one event, stamped with the given tick and the flight's
// wall clock.
func (f *Flight) Record(kind FlightKind, tick, a, b, c int64, note string) {
	if f == nil {
		return
	}
	ev := FlightEvent{Kind: kind, Tick: tick, A: a, B: b, C: c, Note: note}
	f.mu.Lock()
	// Stamp under the lock: wall stamps are monotone *within a flight* in
	// recording order, so attributed segment durations are never negative.
	ev.WallNs = f.wallNs()
	ev.Seq = uint64(len(f.events))
	f.events = append(f.events, ev)
	f.mu.Unlock()
}

// Events returns the recorded events in recording order (a fresh copy).
func (f *Flight) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FlightEvent(nil), f.events...)
}
