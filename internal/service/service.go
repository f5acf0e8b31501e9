// Package service is the resident control plane: a long-running Service owns
// a core.Engine (network state) and a routing.Planner (the LP relaxation with
// rounding, solved cold each epoch), admits transfer requests mid-stream into
// a bounded queue, batches them into epochs, and executes each epoch on the
// deterministic worker pool. Admission control and load-shedding are first-class: a full
// queue sheds with ErrQueueFull (HTTP 429 with a Retry-After computed from
// observed epoch latency), a draining service refuses with ErrDraining
// (HTTP 503), and every decision is counted on the telemetry registry the
// ops plane serves at /metrics.
//
// The service also hosts the live fault plane (FaultPlane): one fault
// scenario stepped against the whole network in epoch-tick time. Each epoch
// plans cold on the fault-masked topology and executes under a static overlay
// snapshot; transfers carry deadlines and retry budgets and fail with a
// machine-readable failure class (shed, deadline, no_path, decode).
//
// Determinism: epoch e executes on the rng sub-stream SplitN("epoch", e) of
// the service's root source and runs through the core engine's parallel
// executor, whose outcomes are worker-count invariant — so a daemon-admitted
// transfer produces the same result regardless of pool width or the
// wall-clock timing of its admission within an epoch. The fault plane has its
// own stream (Split("faults")) and advances only in StepFaults, so a fixed
// admission/step timeline reproduces the same fault history too.
package service

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"surfnet/internal/core"
	"surfnet/internal/faults"
	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/telemetry"

	"context"
)

// Admission errors. The HTTP layer maps them onto status codes.
var (
	// ErrQueueFull sheds a submission because the bounded queue is at
	// capacity (HTTP 429 with Retry-After).
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining refuses a submission because the service is shutting
	// down (HTTP 503).
	ErrDraining = errors.New("service: draining")
	// ErrUnknownTransfer reports a Get for an ID never admitted.
	ErrUnknownTransfer = errors.New("service: unknown transfer")
)

// Retry bounds.
const (
	// maxRetryBudget caps the per-transfer retry budget a client may request.
	// It also bounds a transfer's flight: admitted and queue_enter, then at
	// most 7 events per attempt (queue_exit, epoch_assigned,
	// fault_coincident, planned, executed, decode_verdict, and either
	// retry_scheduled or terminal), over at most maxRetryBudget+1 = 9
	// attempts — 2 + 7×9 = 65 events.
	maxRetryBudget = 8
	// maxDeadlineMs is the largest deadline_ms whose time.Duration does not
	// overflow (about 292 years); a larger value would wrap into the past.
	maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)
	// retryBackoffCap caps the exponential retry backoff, in epochs.
	retryBackoffCap = 8
	// retryPoll is how long Run waits before re-polling when the only
	// pending work is retries sitting out their backoff.
	retryPoll = 20 * time.Millisecond
)

// Config sizes the resident control plane.
type Config struct {
	// QueueLimit bounds the admission queue; submissions beyond it are
	// shed with ErrQueueFull. Zero selects 256.
	QueueLimit int
	// EpochMax caps transfers batched into one epoch. Zero selects 32.
	EpochMax int
	// Workers sizes the execution pool. Results are identical for every
	// value; zero selects GOMAXPROCS.
	Workers int
	// Seed seeds the root randomness source; epoch e draws from
	// SplitN("epoch", e) and the fault plane from Split("faults"). Zero
	// selects 1.
	Seed uint64
	// Metrics receives service counters, gauges, and the latency HDR
	// histograms; nil instruments are no-ops.
	Metrics *telemetry.Registry
	// Tracer receives the fault plane's service.fault events; nil disables.
	Tracer telemetry.Tracer
	// DrainHook, when non-nil, runs exactly once at the start of a drain —
	// before the final epochs execute — so the daemon can flip /readyz off
	// while in-flight work completes.
	DrainHook func()

	// Faults arms the live fault plane with an initial scenario; it is
	// validated against the engine's network at construction. Nil leaves
	// the plane idle (it can still be armed later via SetFaultProfile).
	Faults *faults.Profile
	// FaultTick is the wall-clock period Run steps the fault plane at.
	// Zero selects 250ms; negative disables ticking (tests call StepFaults
	// directly for a deterministic timeline).
	FaultTick time.Duration

	// FlightClock is the clock flight events and transfer deadlines read.
	// Nil selects time.Now; tests inject a deterministic clock.
	FlightClock func() time.Time
}

func (c *Config) fill() {
	if c.QueueLimit == 0 {
		c.QueueLimit = 256
	}
	if c.EpochMax == 0 {
		c.EpochMax = 32
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FaultTick == 0 {
		c.FaultTick = 250 * time.Millisecond
	}
}

// Transfer states.
const (
	StateQueued    = "queued"
	StateRetrying  = "retrying"
	StateCompleted = "completed"
	StateFailed    = "failed"
)

// Failure classes — the machine-readable taxonomy of how a transfer (or an
// admission) can fail. FailShed happens at admission time (429/503: the
// transfer never got an ID); the other three are terminal states of admitted
// transfers.
const (
	// FailShed marks admission-control refusals: queue full or draining.
	FailShed = "shed"
	// FailDeadline marks running out of time: the client TTL expired, or
	// the slot budget was exhausted before any code was delivered.
	FailDeadline = "deadline"
	// FailNoPath marks the scheduler admitting zero codes — no feasible
	// path under the current (possibly fault-masked) topology.
	FailNoPath = "no_path"
	// FailDecode marks delivery without a single successful decode.
	FailDecode = "decode"
)

// TransferRequest is one admission request: tenant tag plus the network
// request it carries, with an optional robustness contract.
type TransferRequest struct {
	Tenant   string `json:"tenant"`
	Src      int    `json:"src"`
	Dst      int    `json:"dst"`
	Messages int    `json:"messages"`
	// DeadlineMs is an optional TTL in milliseconds from admission; a
	// transfer that has not completed by then fails with class "deadline"
	// instead of being retried further. Zero means no deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// RetryBudget is how many times a failing transfer may be re-queued
	// (exponential epoch backoff) before its failure becomes terminal.
	// Capped at 8; zero means fail on first error.
	RetryBudget int `json:"retry_budget,omitempty"`
}

// TransferStatus is the externally visible state of one transfer.
type TransferStatus struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	State    string `json:"state"`
	Src      int    `json:"src"`
	Dst      int    `json:"dst"`
	Messages int    `json:"messages"`
	// Epoch is the epoch that executed the transfer (terminal states).
	Epoch int64 `json:"epoch,omitempty"`
	// AcceptedCodes is how many surface codes the scheduler admitted for
	// this transfer; DeliveredCodes and SuccessCodes summarize execution.
	AcceptedCodes  int `json:"accepted_codes"`
	DeliveredCodes int `json:"delivered_codes"`
	SuccessCodes   int `json:"success_codes"`
	// Retries is how many re-queues the transfer has consumed.
	Retries int `json:"retries,omitempty"`
	// FailureClass is the machine-readable failure taxonomy entry
	// (deadline, no_path, decode) once the transfer has failed an attempt;
	// for State retrying it names the most recent failure.
	FailureClass string `json:"failure_class,omitempty"`
	// WallLatencySeconds is admission-to-completion wall time (terminal
	// states only).
	WallLatencySeconds float64 `json:"wall_latency_seconds,omitempty"`
	// Error carries the failure reason when State is failed.
	Error string `json:"error,omitempty"`
}

// transfer is the internal record behind a TransferStatus.
type transfer struct {
	status      TransferStatus
	submitted   time.Time
	deadline    time.Time // zero: no deadline
	retryBudget int
	notBefore   int64 // earliest epoch a scheduled retry may run in
	// flight is the transfer's lifecycle event log.
	flight *telemetry.Flight
}

// TenantStats is the per-tenant admission accounting /status reports.
type TenantStats struct {
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Failed    int64 `json:"failed"`
	// FailedByClass splits Failed by failure class.
	FailedByClass map[string]int64 `json:"failed_by_class,omitempty"`
}

// Status is the service snapshot embedded in /status (see
// obs.Server.SetServiceStatus).
type Status struct {
	Draining   bool                   `json:"draining"`
	QueueDepth int                    `json:"queue_depth"`
	Admitted   int64                  `json:"admitted"`
	Completed  int64                  `json:"completed"`
	Failed     int64                  `json:"failed"`
	Shed       int64                  `json:"shed"`
	Epochs     int64                  `json:"epochs"`
	Tenants    map[string]TenantStats `json:"tenants,omitempty"`
	// Retrying is how many transfers are waiting out a retry backoff.
	Retrying int `json:"retrying,omitempty"`
	// Retries is the total re-queues granted so far.
	Retries int64 `json:"retries,omitempty"`
	// FailedByClass splits Failed by failure class, service-wide.
	FailedByClass map[string]int64 `json:"failed_by_class,omitempty"`
	// RetryAfterSeconds is the backoff hint 429 responses currently carry,
	// derived from the observed epoch wall-clock p50.
	RetryAfterSeconds int `json:"retry_after_seconds"`
	// Faults snapshots the live fault plane when one is armed.
	Faults *FaultState `json:"faults,omitempty"`
	// WallP50/P99 are admission-to-completion latency quantiles in
	// seconds over completed transfers.
	WallP50 float64 `json:"wall_p50_seconds"`
	WallP99 float64 `json:"wall_p99_seconds"`
	// Queue reports queue pressure beyond the instantaneous depth — sampled
	// depth and queue-wait quantiles make shedding onset visible before
	// 429s start.
	Queue *QueueStatus `json:"queue,omitempty"`
	// Attribution summarizes the per-segment latency HDRs over terminal
	// transfers: where admission-to-terminal time actually went.
	Attribution map[string]SegmentStats `json:"attribution,omitempty"`
}

// QueueStatus is the queue-pressure block of Status.
type QueueStatus struct {
	// Depth is the instantaneous queue depth.
	Depth int `json:"depth"`
	// Samples counts depth observations (one per admission and per epoch
	// batch take); DepthP50/P99 are quantiles over them.
	Samples  int64   `json:"samples,omitempty"`
	DepthP50 float64 `json:"depth_p50,omitempty"`
	DepthP99 float64 `json:"depth_p99,omitempty"`
	// WaitP50/P99Seconds are admission-to-first-dispatch wall quantiles.
	WaitP50Seconds float64 `json:"wait_p50_seconds,omitempty"`
	WaitP99Seconds float64 `json:"wait_p99_seconds,omitempty"`
}

// SegmentStats summarizes one attributed segment class across transfers.
type SegmentStats struct {
	Count      int64   `json:"count"`
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// Service is the resident control plane. Construct with New, serve its HTTP
// API via RegisterRoutes, and run the epoch loop with Run (or drive epochs
// synchronously with StepEpoch — and the fault plane with StepFaults — in
// tests).
type Service struct {
	eng   *core.Engine
	pl    *routing.Planner
	cfg   Config
	src   *rng.Source
	plane *FaultPlane

	admitted       *telemetry.Counter
	completed      *telemetry.Counter
	failed         *telemetry.Counter
	shed           *telemetry.Counter
	epochsCtr      *telemetry.Counter
	retriesCtr     *telemetry.Counter
	failedDeadline *telemetry.Counter
	failedNoPath   *telemetry.Counter
	failedDecode   *telemetry.Counter
	queueDepth     *telemetry.Gauge
	wall           *telemetry.HDR
	epochWall      *telemetry.HDR
	queueWait      *telemetry.HDR
	queueDepthHist *telemetry.HDR
	// segWall holds one wall HDR per attribution segment class; tenantWall
	// one per tenant (bounded; overflow tenants share "other").
	segWall    map[string]*telemetry.HDR
	tenantWall map[string]*telemetry.HDR

	// now is the service clock (injectable for deterministic tests);
	// wallNs stamps flight events in nanoseconds since New.
	now    func() time.Time
	wallNs func() int64

	wake chan struct{}

	mu        sync.Mutex
	queue     []*transfer
	retryQ    []*transfer // waiting out retry backoff, admission order
	transfers map[string]*transfer
	tenants   map[string]*TenantStats
	seq       int64
	epoch     int64
	draining  bool
	drained   chan struct{} // closed when a drain has fully completed
	// retries counts re-queues granted; the tenant records, which hold
	// every other /status total, have no retry field.
	retries int64
	// recent rings the last bundleFlights terminal transfers for
	// /debug/bundle; recentNext is the slot the next one lands in.
	recent     [bundleFlights]*transfer
	recentNext int
}

// New builds a service over an engine and planner. The planner's design
// governs scheduling; the engine owns the network the epochs execute on. An
// initial fault profile (cfg.Faults) is validated against that network here —
// an out-of-range script target is a construction error, not a mid-epoch
// surprise.
func New(eng *core.Engine, pl *routing.Planner, cfg Config) (*Service, error) {
	if eng == nil {
		return nil, errors.New("service: nil engine")
	}
	if pl == nil {
		return nil, errors.New("service: nil planner")
	}
	cfg.fill()
	reg := cfg.Metrics
	s := &Service{
		eng:            eng,
		pl:             pl,
		cfg:            cfg,
		src:            rng.New(cfg.Seed),
		admitted:       reg.Counter("service.admitted"),
		completed:      reg.Counter("service.completed"),
		failed:         reg.Counter("service.failed"),
		shed:           reg.Counter("service.shed"),
		epochsCtr:      reg.Counter("service.epochs"),
		retriesCtr:     reg.Counter("service.retries"),
		failedDeadline: reg.Counter("service.failed_deadline"),
		failedNoPath:   reg.Counter("service.failed_no_path"),
		failedDecode:   reg.Counter("service.failed_decode"),
		queueDepth:     reg.Gauge("service.queue_depth"),
		wake:           make(chan struct{}, 1),
		transfers:      make(map[string]*transfer),
		tenants:        make(map[string]*TenantStats),
		drained:        make(chan struct{}),
	}
	// Every instrument (including a nil registry's) is nil-receiver safe.
	s.wall = reg.HDR("service.transfer_wall_seconds", telemetry.WallLatencySpec)
	s.epochWall = reg.HDR("service.epoch_wall_seconds", telemetry.WallLatencySpec)
	s.queueWait = reg.HDR("service.queue_wait_wall_seconds", telemetry.WallLatencySpec)
	s.queueDepthHist = reg.HDR("service.queue_depth_sampled", telemetry.CountSpec)
	s.segWall = make(map[string]*telemetry.HDR, len(segmentClasses))
	for _, class := range segmentClasses {
		s.segWall[class] = reg.HDR("service.segment_"+class+"_wall_seconds", telemetry.WallLatencySpec)
	}
	s.tenantWall = make(map[string]*telemetry.HDR)
	s.now = cfg.FlightClock
	if s.now == nil {
		s.now = time.Now
	}
	origin := s.now()
	s.wallNs = func() int64 { return int64(s.now().Sub(origin)) }
	var profile faults.Profile
	if cfg.Faults != nil {
		profile = *cfg.Faults
	}
	plane, err := newFaultPlane(eng.Network(), profile, s.src.Split("faults"), reg, cfg.Tracer)
	if err != nil {
		return nil, fmt.Errorf("service: fault profile: %w", err)
	}
	s.plane = plane
	return s, nil
}

// Engine exposes the engine (read-only use: network snapshots).
func (s *Service) Engine() *core.Engine { return s.eng }

// Submit admits one transfer into the queue. It returns the queued status,
// or ErrQueueFull / ErrDraining / a validation error naming the reason the
// submission was refused.
func (s *Service) Submit(req TransferRequest) (TransferStatus, error) {
	nreq := network.Request{Src: req.Src, Dst: req.Dst, Messages: req.Messages}
	if err := nreq.Validate(s.eng.Network()); err != nil {
		return TransferStatus{}, fmt.Errorf("service: invalid transfer: %w", err)
	}
	if req.DeadlineMs < 0 || req.DeadlineMs > maxDeadlineMs {
		return TransferStatus{}, fmt.Errorf("service: invalid transfer: deadline_ms %d outside [0,%d]", req.DeadlineMs, maxDeadlineMs)
	}
	if req.RetryBudget < 0 || req.RetryBudget > maxRetryBudget {
		return TransferStatus{}, fmt.Errorf("service: invalid transfer: retry_budget %d outside [0,%d]", req.RetryBudget, maxRetryBudget)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tn := s.tenantLocked(req.Tenant)
	if s.draining {
		tn.Shed++
		s.shed.Inc()
		return TransferStatus{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueLimit {
		tn.Shed++
		s.shed.Inc()
		return TransferStatus{}, ErrQueueFull
	}
	s.seq++
	now := s.now()
	t := &transfer{
		status: TransferStatus{
			ID:       fmt.Sprintf("t-%d", s.seq),
			Tenant:   req.Tenant,
			State:    StateQueued,
			Src:      req.Src,
			Dst:      req.Dst,
			Messages: req.Messages,
		},
		submitted:   now,
		retryBudget: req.RetryBudget,
	}
	if req.DeadlineMs > 0 {
		t.deadline = now.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}
	s.queue = append(s.queue, t)
	s.transfers[t.status.ID] = t
	t.flight = telemetry.NewFlight(s.wallNs)
	t.flight.Record(telemetry.FlightAdmitted, s.epoch, 0, 0, 0, "")
	t.flight.Record(telemetry.FlightQueueEnter, s.epoch, int64(len(s.queue)), 0, 0, "")
	tn.Admitted++
	s.admitted.Inc()
	s.queueDepth.Set(float64(len(s.queue)))
	s.queueDepthHist.Observe(float64(len(s.queue)))
	s.wakeUp()
	return t.status, nil
}

// Get returns the status of a transfer by ID.
func (s *Service) Get(id string) (TransferStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.transfers[id]
	if !ok {
		return TransferStatus{}, ErrUnknownTransfer
	}
	return t.status, nil
}

// tenantLocked returns the accounting record for a tenant, creating it on
// first sight. The empty tenant is tracked as "default"; once maxTenants
// names have records, further names share "other", so shed submissions with
// ever-new tenant names cannot grow /status without bound.
func (s *Service) tenantLocked(name string) *TenantStats {
	if name == "" {
		name = "default"
	}
	st, ok := s.tenants[name]
	if ok {
		return st
	}
	if len(s.tenants) >= maxTenants {
		name = "other"
		if st, ok = s.tenants[name]; ok {
			return st
		}
	}
	st = &TenantStats{}
	s.tenants[name] = st
	return st
}

// RetryAfterHint is the backoff 429 responses advertise, in seconds: the
// observed epoch wall-clock p50 rounded up, clamped to [1, 30]. Before any
// epoch has run it defaults to 1.
func (s *Service) RetryAfterHint() int {
	if s.epochWall.Count() == 0 {
		return 1
	}
	secs := int(math.Ceil(s.epochWall.Quantile(0.5)))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Status snapshots the service for the ops plane.
func (s *Service) Status() Status {
	hint := s.RetryAfterHint()
	fs := s.plane.State()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Draining:          s.draining,
		QueueDepth:        len(s.queue),
		Epochs:            s.epoch,
		Tenants:           make(map[string]TenantStats, len(s.tenants)),
		Retrying:          len(s.retryQ),
		Retries:           s.retries,
		RetryAfterSeconds: hint,
	}
	// The service-wide totals are the sums of the tenant records: every
	// submission lands on exactly one record, which also takes its outcome.
	for name, ts := range s.tenants {
		c := *ts
		st.Admitted += c.Admitted
		st.Completed += c.Completed
		st.Failed += c.Failed
		st.Shed += c.Shed
		if len(ts.FailedByClass) > 0 {
			c.FailedByClass = make(map[string]int64, len(ts.FailedByClass))
			if st.FailedByClass == nil {
				st.FailedByClass = make(map[string]int64)
			}
			for k, v := range ts.FailedByClass {
				c.FailedByClass[k] = v
				st.FailedByClass[k] += v
			}
		}
		st.Tenants[name] = c
	}
	if fs.Enabled {
		st.Faults = &fs
	}
	if s.wall.Count() > 0 {
		st.WallP50 = s.wall.Quantile(0.5)
		st.WallP99 = s.wall.Quantile(0.99)
	}
	// Empty instruments report NaN quantiles, which JSON cannot encode —
	// every quantile below is guarded by its count.
	st.Queue = &QueueStatus{Depth: len(s.queue), Samples: s.queueDepthHist.Count()}
	if s.queueDepthHist.Count() > 0 {
		st.Queue.DepthP50 = s.queueDepthHist.Quantile(0.5)
		st.Queue.DepthP99 = s.queueDepthHist.Quantile(0.99)
	}
	if s.queueWait.Count() > 0 {
		st.Queue.WaitP50Seconds = s.queueWait.Quantile(0.5)
		st.Queue.WaitP99Seconds = s.queueWait.Quantile(0.99)
	}
	for _, class := range segmentClasses {
		h := s.segWall[class]
		if h.Count() == 0 {
			continue
		}
		if st.Attribution == nil {
			st.Attribution = make(map[string]SegmentStats)
		}
		st.Attribution[class] = SegmentStats{
			Count:      h.Count(),
			P50Seconds: h.Quantile(0.5),
			P99Seconds: h.Quantile(0.99),
		}
	}
	return st
}

// SetFaultProfile swaps the live fault scenario at runtime (POST /v1/faults).
// The profile is validated against the network; the error is suitable for a
// 400 response.
func (s *Service) SetFaultProfile(p faults.Profile) error {
	return s.plane.SetProfile(p)
}

// FaultState snapshots the live fault plane (GET /v1/faults).
func (s *Service) FaultState() FaultState { return s.plane.State() }

// FaultProfile returns the scenario currently armed on the fault plane.
func (s *Service) FaultProfile() faults.Profile { return s.plane.Profile() }

// StepFaults advances the live fault plane one tick and returns the tick's
// outage event count. The next epoch plans on the new fault state. Run calls
// this on the FaultTick cadence; tests call it directly.
func (s *Service) StepFaults() int { return s.plane.Step() }

// wakeUp pokes the Run loop without blocking.
func (s *Service) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// StepEpoch synchronously executes one epoch: it promotes due retries, takes
// up to EpochMax queued transfers, fails the ones whose deadline has already
// passed, plans the rest cold on the fault-masked network, runs the schedule
// on the parallel engine under the epoch's fault overlay, and classifies
// every outcome — completing, re-queueing (budget permitting), or failing
// with a failure class. It returns how many transfers it processed (0 =
// nothing runnable). Admitted work always reaches a terminal state;
// structural planning or execution errors are returned for logging after the
// batch is settled.
func (s *Service) StepEpoch(ctx context.Context) (int, error) {
	s.mu.Lock()
	s.promoteRetriesLocked()
	n := len(s.queue)
	if n == 0 {
		if len(s.retryQ) > 0 && !s.draining {
			// Only retries remain and none are due: an empty step advances
			// epoch time so their backoff elapses.
			s.epoch++
		}
		s.mu.Unlock()
		return 0, nil
	}
	if n > s.cfg.EpochMax {
		n = s.cfg.EpochMax
	}
	batch := s.queue[:n]
	s.queue = s.queue[n:]
	s.queueDepth.Set(float64(len(s.queue)))
	s.queueDepthHist.Observe(float64(len(s.queue)))
	epoch := s.epoch
	s.epoch++
	dispatch := s.now()
	for _, t := range batch {
		t.flight.Record(telemetry.FlightQueueExit, epoch, int64(len(s.queue)), 0, 0, "")
		t.flight.Record(telemetry.FlightEpochAssigned, epoch, epoch, 0, 0, "")
		if t.status.Retries == 0 {
			// First dispatch: everything since admission was queue wait.
			s.queueWait.Observe(dispatch.Sub(t.submitted).Seconds())
		}
	}
	s.mu.Unlock()

	start := time.Now()
	// Deadline sweep: a transfer whose TTL has already expired fails now,
	// terminally — retry budget does not resurrect missed deadlines.
	now := s.now()
	live := make([]*transfer, 0, len(batch))
	var expired []*transfer
	for _, t := range batch {
		if !t.deadline.IsZero() && now.After(t.deadline) {
			expired = append(expired, t)
			continue
		}
		live = append(live, t)
	}
	if len(expired) > 0 {
		s.mu.Lock()
		for _, t := range expired {
			s.finalizeFailureLocked(t, epoch, FailDeadline, "service: deadline exceeded before execution")
		}
		s.mu.Unlock()
	}
	if len(live) == 0 {
		s.epochsCtr.Inc()
		s.epochWall.Observe(time.Since(start).Seconds())
		return n, nil
	}

	reqs := make([]network.Request, len(live))
	for i, t := range live {
		reqs[i] = network.Request{Src: t.status.Src, Dst: t.status.Dst, Messages: t.status.Messages}
	}
	// Plan on the fault-masked topology: the control plane routes around
	// what it knows is down, while execution still samples per-transfer
	// stochastic faults on top of the same overlay.
	overlay := s.plane.State()
	if overlay.Outaged() {
		for _, t := range live {
			t.flight.Record(telemetry.FlightFaultCoincident, epoch,
				int64(len(overlay.DownFibers)), int64(len(overlay.DownNodes)), 0, "")
		}
	}
	planNet := overlay.Mask(s.eng.Network())
	sched, err := s.pl.Plan(planNet, reqs)
	if err != nil {
		s.settleFailures(live, epoch, FailNoPath, fmt.Errorf("planning: %w", err))
		s.epochWall.Observe(time.Since(start).Seconds())
		return n, fmt.Errorf("service: epoch %d planning: %w", epoch, err)
	}
	for _, t := range live {
		t.flight.Record(telemetry.FlightPlanned, epoch, int64(len(live)), 0, 0, "")
	}
	res, err := s.execute(ctx, sched, epoch, overlay)
	if err != nil {
		s.settleFailures(live, epoch, FailDecode, fmt.Errorf("execution: %w", err))
		s.epochWall.Observe(time.Since(start).Seconds())
		return n, fmt.Errorf("service: epoch %d execution: %w", epoch, err)
	}
	// Greedy repair preserves the request list 1:1 (sched.Requests[i] is
	// reqs[i]), so outcomes map straight back onto the batch.
	delivered := make([]int, len(live))
	success := make([]int, len(live))
	for _, o := range res.Outcomes {
		if o.Delivered {
			delivered[o.Request]++
		}
		if o.Success {
			success[o.Request]++
		}
	}
	s.mu.Lock()
	s.epochsCtr.Inc()
	for i, t := range live {
		t.status.Epoch = epoch
		if len(sched.Requests) == len(live) {
			t.status.AcceptedCodes = sched.Requests[i].Accepted()
		}
		t.status.DeliveredCodes = delivered[i]
		t.status.SuccessCodes = success[i]
		t.flight.Record(telemetry.FlightExecuted, epoch,
			int64(t.status.AcceptedCodes), int64(delivered[i]), int64(success[i]), "")
		if t.status.AcceptedCodes > 0 {
			verdict := "failed"
			if success[i] > 0 {
				verdict = "ok"
			}
			t.flight.Record(telemetry.FlightDecodeVerdict, epoch,
				int64(delivered[i]), int64(success[i]), 0, verdict)
		}
		switch {
		case t.status.AcceptedCodes == 0:
			s.retryOrFailLocked(t, epoch, FailNoPath, "service: no feasible path admitted")
		case delivered[i] == 0:
			s.retryOrFailLocked(t, epoch, FailDeadline, "service: slot budget exhausted before delivery")
		case success[i] == 0:
			s.retryOrFailLocked(t, epoch, FailDecode, "service: every delivered code failed decoding")
		default:
			t.status.State = StateCompleted
			t.status.FailureClass = ""
			t.status.Error = ""
			s.terminalFlightLocked(t, epoch, "completed")
			s.wall.Observe(t.status.WallLatencySeconds)
			s.tenantWallLocked(t.status.Tenant).Observe(t.status.WallLatencySeconds)
			s.tenantLocked(t.status.Tenant).Completed++
			s.completed.Inc()
		}
	}
	s.mu.Unlock()
	s.epochWall.Observe(time.Since(start).Seconds())
	return n, nil
}

// execute runs one epoch's schedule under the live fault overlay merged with
// the engine's own fault scenario. Without any faults in play it takes the
// plain parallel path, byte-identical to the pre-fault-plane service.
func (s *Service) execute(ctx context.Context, sched routing.Schedule, epoch int64, overlay FaultState) (core.RunResult, error) {
	src := s.src.SplitN("epoch", int(epoch))
	var p faults.Profile
	if base := s.eng.Config().Faults; base != nil {
		p = *base
	}
	p.DownFibers = overlay.DownFibers
	p.DownNodes = overlay.DownNodes
	p.GammaScale = overlay.GammaScale
	if !p.Enabled() {
		return s.eng.ExecuteParallel(ctx, sched, src, s.cfg.Workers)
	}
	return s.eng.ExecuteParallelFaults(ctx, sched, src, s.cfg.Workers, &p)
}

// promoteRetriesLocked moves due retries (backoff elapsed, or any retry when
// draining) to the head of the queue, ahead of fresh arrivals. Re-queued
// transfers bypass QueueLimit — they were already admitted once.
func (s *Service) promoteRetriesLocked() {
	if len(s.retryQ) == 0 {
		return
	}
	var due, wait []*transfer
	for _, t := range s.retryQ {
		if s.draining || t.notBefore <= s.epoch {
			due = append(due, t)
		} else {
			wait = append(wait, t)
		}
	}
	if len(due) == 0 {
		return
	}
	s.retryQ = wait
	for _, t := range due {
		t.status.State = StateQueued
	}
	s.queue = append(due, s.queue...)
	s.queueDepth.Set(float64(len(s.queue)))
}

// retryOrFailLocked decides a failed attempt's fate: re-queue with
// exponential epoch backoff while budget remains, the deadline has not
// passed, and the service is not draining; otherwise finalize the failure.
func (s *Service) retryOrFailLocked(t *transfer, epoch int64, class, msg string) {
	if !s.draining && t.status.Retries < t.retryBudget &&
		(t.deadline.IsZero() || s.now().Before(t.deadline)) {
		t.status.Retries++
		t.status.State = StateRetrying
		t.status.FailureClass = class
		t.status.Error = ""
		backoff := int64(1) << (t.status.Retries - 1)
		if backoff > retryBackoffCap {
			backoff = retryBackoffCap
		}
		t.notBefore = epoch + backoff
		t.flight.Record(telemetry.FlightRetryScheduled, epoch, backoff, t.notBefore, 0, class)
		s.retryQ = append(s.retryQ, t)
		s.retries++
		s.retriesCtr.Inc()
		return
	}
	s.finalizeFailureLocked(t, epoch, class, msg)
}

// finalizeFailureLocked drives a transfer to the terminal failed state and
// lands its failure class on the per-class counters and tenant accounting.
func (s *Service) finalizeFailureLocked(t *transfer, epoch int64, class, msg string) {
	t.status.State = StateFailed
	t.status.Epoch = epoch
	t.status.FailureClass = class
	t.status.Error = msg
	s.terminalFlightLocked(t, epoch, class)
	tn := s.tenantLocked(t.status.Tenant)
	tn.Failed++
	if tn.FailedByClass == nil {
		tn.FailedByClass = make(map[string]int64)
	}
	tn.FailedByClass[class]++
	s.failed.Inc()
	switch class {
	case FailDeadline:
		s.failedDeadline.Inc()
	case FailNoPath:
		s.failedNoPath.Inc()
	case FailDecode:
		s.failedDecode.Inc()
	}
}

// bundleFlights is how many of the most recent terminal transfers
// /debug/bundle carries.
const bundleFlights = 32

// terminalFlightLocked stamps a transfer's terminal flight event, derives its
// admission-to-terminal wall latency from the flight's own stamps (so /trace
// segment sums match WallLatencySeconds exactly), feeds the per-segment wall
// HDRs, and rings the transfer into the incident bundle's window.
func (s *Service) terminalFlightLocked(t *transfer, epoch int64, note string) {
	t.flight.Record(telemetry.FlightTerminal, epoch, 0, 0, 0, note)
	events := t.flight.Events()
	t.status.WallLatencySeconds = float64(events[len(events)-1].WallNs-events[0].WallNs) / 1e9
	for class, ns := range attribute(events).wallNs {
		if ns > 0 {
			s.segWall[class].Observe(float64(ns) / 1e9)
		}
	}
	s.recent[s.recentNext] = t
	s.recentNext = (s.recentNext + 1) % bundleFlights
}

// maxTenants bounds per-tenant cardinality, of both the /status accounting
// records and the latency HDRs; tenants beyond it share "other".
const maxTenants = 32

// tenantWallLocked returns the tenant's admission-to-completion wall HDR,
// creating it on first sight. HDRs are keyed by the name /metrics renders, so
// tenants whose names render alike ("a.b", "a_b") share one metric family
// instead of exposing it twice.
func (s *Service) tenantWallLocked(name string) *telemetry.HDR {
	if name == "" {
		name = "default"
	}
	name = telemetry.SanitizeName(name)
	h, ok := s.tenantWall[name]
	if ok {
		return h
	}
	if len(s.tenantWall) >= maxTenants {
		name = "other"
		if h, ok = s.tenantWall[name]; ok {
			return h
		}
	}
	h = s.cfg.Metrics.HDR("service.tenant."+name+".wall_seconds", telemetry.WallLatencySpec)
	s.tenantWall[name] = h
	return h
}

// settleFailures retries or fails a batch after an epoch-level error.
func (s *Service) settleFailures(batch []*transfer, epoch int64, class string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range batch {
		t.status.Epoch = epoch
		s.retryOrFailLocked(t, epoch, class, err.Error())
	}
}

// pendingRetries reports how many transfers are waiting out a backoff.
func (s *Service) pendingRetries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.retryQ)
}

// Run is the daemon's epoch loop: it executes epochs as admissions arrive,
// steps the live fault plane on the FaultTick cadence, re-polls while retries
// wait out their backoff, and, once ctx is cancelled (SIGTERM), drains —
// refusing new admissions, completing every queued and retrying transfer,
// and only then returning. The returned error is the last epoch error seen
// during the drain, if any; transfers touched by a failing epoch are in the
// failed state, never silently dropped.
func (s *Service) Run(ctx context.Context) error {
	var tick <-chan time.Time
	if s.cfg.FaultTick > 0 {
		tk := time.NewTicker(s.cfg.FaultTick)
		defer tk.Stop()
		tick = tk.C
	}
	for {
		select {
		case <-ctx.Done():
			return s.drain()
		case <-tick:
			s.StepFaults()
		case <-s.wake:
		}
		for {
			// Epochs run to completion even if ctx is cancelled mid-epoch;
			// cancellation is observed between epochs, at the drain point.
			n, err := s.StepEpoch(context.Background())
			if err != nil {
				return s.drainAfter(err)
			}
			if n == 0 {
				break
			}
		}
		if s.pendingRetries() > 0 {
			// Backoffs elapse in epoch steps; poke the loop shortly so the
			// empty steps that advance epoch time keep happening.
			time.AfterFunc(retryPoll, s.wakeUp)
		}
	}
}

// drain refuses further admissions and completes everything still queued.
func (s *Service) drain() error { return s.drainAfter(nil) }

func (s *Service) drainAfter(sticky error) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already && s.cfg.DrainHook != nil {
		s.cfg.DrainHook()
	}
	for {
		// Draining makes every pending retry due immediately, so StepEpoch
		// returns 0 only once both the queue and the retry set are empty.
		n, err := s.StepEpoch(context.Background())
		if err != nil {
			sticky = err
		}
		if n == 0 {
			close(s.drained)
			return sticky
		}
	}
}

// Drained reports whether a drain has fully completed (terminal states
// reached for every admitted transfer). It is closed by Run's drain path.
func (s *Service) Drained() <-chan struct{} { return s.drained }
