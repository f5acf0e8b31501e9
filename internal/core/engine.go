// Package core implements the paper's primary contribution as a running
// system: the SurfNet online execution stage (§V-B). Given an offline
// schedule from the routing protocol, the engine simulates slot-by-slot
// transfer of every scheduled surface code over the two channels —
// opportunistic teleportation of the Core part across entanglement segments,
// plain-channel photon transport of the Support part with loss — performs
// real error-correction decoding at the scheduled servers and at the
// destination, and reports the paper's three evaluation metrics: fidelity
// (success rate), latency (waiting slots), and, together with the schedule,
// throughput.
//
// The same engine executes the baseline designs: Raw (everything over plain
// channels) and Purification N=1,2,9 (teleportation-only with N extra pairs
// consumed per fiber).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"surfnet/internal/decoder"
	"surfnet/internal/faults"
	"surfnet/internal/network"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/sim"
	"surfnet/internal/surfacecode"
	"surfnet/internal/telemetry"
)

// ErrConfig is returned for invalid engine configuration.
var ErrConfig = errors.New("core: invalid config")

// Config parameterizes the online execution engine.
type Config struct {
	// Code is the surface code carried by every communication. Its
	// Core/Support partition sizes must match the schedule's routing
	// parameters for SurfNet schedules.
	Code *surfacecode.Code
	// Decoder performs error correction at servers and destinations.
	// Defaults to the SurfNet Decoder.
	Decoder decoder.Decoder
	// MinSegment is the minimum number of consecutive entangled fibers
	// required before the Core part moves forward; the paper fixes two
	// (§V-B "we fix the minimum distance for the movement to be two
	// consecutive optical fibers").
	MinSegment int
	// MaxSlots bounds each communication; codes still in flight after
	// this many slots are counted as undelivered.
	MaxSlots int
	// WaitForComplete switches off the data-transfer/error-correction
	// parallelism of §V-B: lost Support photons are retransmitted from
	// the previous node until the full code is present, instead of being
	// marked as erasures for the decoder. Slower but more reliable — the
	// trade-off the paper describes.
	WaitForComplete bool
	// Faults, when non-nil, selects the fault-injection scenario: stochastic
	// fiber crashes (§V-B "crashes in incoming/outgoing ports"), node/server
	// outages, correlated regional failures, fidelity drift, and scripted
	// outage timetables (internal/faults). Nil injects no faults. For
	// SurfNet and Raw transfers every component applies; purification
	// baselines react to fiber outages and drift only (they have no
	// correction servers for node outages to affect).
	Faults *faults.Profile
	// DisableRecovery turns off local recovery paths, leaving codes to
	// wait out fiber outages.
	DisableRecovery bool
	// RecoveryBackoff bounds how often a blocked part retries its local
	// recovery search. Zero keeps the legacy policy (re-run Dijkstra every
	// blocked slot); a positive value is the initial backoff in slots,
	// doubled after each consecutive failed attempt up to
	// RecoveryBackoffMax.
	RecoveryBackoff int
	// RecoveryBackoffMax caps the exponential recovery backoff. Zero
	// selects 32 when RecoveryBackoff is set.
	RecoveryBackoffMax int
	// ReplanAfterFails enables epoch re-planning: once either part of a
	// code has accumulated this many consecutive failed recovery attempts,
	// the engine re-solves the request's routing (LP relaxation with the
	// greedy fallback) over the surviving topology and restarts the
	// transfer from the source on the fresh route — the end-to-end
	// retransmission a control plane falls back to when local repair keeps
	// failing. Zero disables re-planning.
	ReplanAfterFails int
	// ReplanEpoch is the minimum number of slots between re-planning
	// attempts of one transfer. Zero selects 50.
	ReplanEpoch int
	// ChannelErrorScale converts a fiber's infidelity into the per-hop,
	// per-photon decoding-graph flip probability: flip = scale * (1 -
	// gamma). It calibrates how much of a fiber's measured infidelity
	// lands on each individual photon; the default 0.15 places
	// paper-scale routes (2-5 hops between corrections at fiber fidelity
	// 0.75-1) around the surface-code threshold, where the designs
	// differentiate.
	ChannelErrorScale float64
	// MemoryDecay is the per-slot state retention of a bare teleportation
	// payload waiting for entanglement in the purification baselines.
	// Surface-code parts are exempt: the paper keeps them refreshed via
	// error mitigation circuits at each node (§IV-A, §V-B), which is
	// precisely the waiting-time weakness of teleportation-only networks
	// that SurfNet targets. 1 disables decay; the default is 0.999.
	MemoryDecay float64
	// PairLifetime is how many slots an entangled pair stays usable in
	// the purification baselines before decohering away — the "short
	// lifespan of entangled pairs" of §I. Mainstream networks must
	// assemble a full end-to-end chain of live pairs before teleporting,
	// which is what makes distant teleportation time-consuming. Zero
	// selects 20.
	PairLifetime int
	// SwapEfficiency is the fidelity retention of one entanglement swap
	// at an intermediate node. Teleportation across k fibers performs k-1
	// swaps; SurfNet's opportunistic segments pay it within each segment.
	// Zero selects 0.9.
	SwapEfficiency float64
	// Metrics, when non-nil, receives engine counters and histograms
	// (photon losses, teleports, decodes, crashes, recoveries, delivery
	// latency) plus the per-decoder instrumentation of
	// decoder.DecodeFrame. Nil — the default — disables metrics;
	// instrumented sites then cost one nil check each.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives slot-level events tagged with the
	// request and code indices, so one communication's life can be
	// replayed from its trace. Nil disables tracing.
	Tracer telemetry.Tracer
}

// DefaultConfig returns the paper-default engine: a distance-5 code, the
// SurfNet Decoder, two-fiber opportunistic segments, and no fiber crashes.
func DefaultConfig() Config {
	return Config{
		Code:              surfacecode.MustNew(5, surfacecode.CoreLShape),
		Decoder:           decoder.SurfNet{},
		MinSegment:        2,
		MaxSlots:          400,
		ChannelErrorScale: 0.15,
		MemoryDecay:       0.999,
		PairLifetime:      20,
		SwapEfficiency:    0.9,
	}
}

func (c Config) validate(net *network.Network, sched routing.Schedule) error {
	if err := c.validateEngine(net); err != nil {
		return err
	}
	return c.validateSchedule(sched)
}

// validateEngine checks the schedule-independent configuration: everything a
// resident engine can verify once at construction, before any schedule
// arrives.
func (c Config) validateEngine(net *network.Network) error {
	if c.Code == nil {
		return fmt.Errorf("%w: nil code", ErrConfig)
	}
	if c.Decoder == nil {
		return fmt.Errorf("%w: nil decoder", ErrConfig)
	}
	if c.MinSegment < 1 {
		return fmt.Errorf("%w: MinSegment %d < 1", ErrConfig, c.MinSegment)
	}
	if c.MaxSlots < 1 {
		return fmt.Errorf("%w: MaxSlots %d < 1", ErrConfig, c.MaxSlots)
	}
	if c.Faults != nil {
		if err := c.Faults.ValidateAgainst(net); err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	if c.RecoveryBackoff < 0 {
		return fmt.Errorf("%w: RecoveryBackoff %d < 0", ErrConfig, c.RecoveryBackoff)
	}
	if c.RecoveryBackoffMax < 0 {
		return fmt.Errorf("%w: RecoveryBackoffMax %d < 0", ErrConfig, c.RecoveryBackoffMax)
	}
	if c.RecoveryBackoff > 0 && c.RecoveryBackoffMax > 0 && c.RecoveryBackoffMax < c.RecoveryBackoff {
		return fmt.Errorf("%w: RecoveryBackoffMax %d < RecoveryBackoff %d",
			ErrConfig, c.RecoveryBackoffMax, c.RecoveryBackoff)
	}
	if c.ReplanAfterFails < 0 {
		return fmt.Errorf("%w: ReplanAfterFails %d < 0", ErrConfig, c.ReplanAfterFails)
	}
	if c.ReplanEpoch < 0 {
		return fmt.Errorf("%w: ReplanEpoch %d < 0", ErrConfig, c.ReplanEpoch)
	}
	if c.MemoryDecay < 0 || c.MemoryDecay > 1 {
		return fmt.Errorf("%w: MemoryDecay %v", ErrConfig, c.MemoryDecay)
	}
	if c.ChannelErrorScale < 0 || c.ChannelErrorScale > 1 {
		return fmt.Errorf("%w: ChannelErrorScale %v", ErrConfig, c.ChannelErrorScale)
	}
	if c.PairLifetime < 0 {
		return fmt.Errorf("%w: PairLifetime %d", ErrConfig, c.PairLifetime)
	}
	if c.SwapEfficiency < 0 || c.SwapEfficiency > 1 {
		return fmt.Errorf("%w: SwapEfficiency %v", ErrConfig, c.SwapEfficiency)
	}
	return nil
}

// validateSchedule checks the configuration against one schedule: the code
// geometry must match the schedule's routing parameters.
func (c Config) validateSchedule(sched routing.Schedule) error {
	p := sched.Params
	adaptive := len(p.AdaptiveDistances) > 0
	if !adaptive && (sched.Design == routing.SurfNet || sched.Design == routing.Raw) {
		if p.TotalQubits() != c.Code.NumData() {
			return fmt.Errorf("%w: schedule sized for %d qubits, code has %d",
				ErrConfig, p.TotalQubits(), c.Code.NumData())
		}
		if sched.Design == routing.SurfNet && p.CoreQubits != c.Code.CoreSize() {
			return fmt.Errorf("%w: schedule has %d core qubits, code has %d",
				ErrConfig, p.CoreQubits, c.Code.CoreSize())
		}
	}
	return nil
}

// replanEpoch resolves the default re-planning epoch.
func (c Config) replanEpoch() int {
	if c.ReplanEpoch == 0 {
		return 50
	}
	return c.ReplanEpoch
}

// backoffMax resolves the default recovery backoff cap.
func (c Config) backoffMax() int {
	if c.RecoveryBackoffMax == 0 {
		return 32
	}
	return c.RecoveryBackoffMax
}

// Outcome records the execution of one scheduled surface code.
type Outcome struct {
	// Request indexes into the schedule's request list.
	Request int
	// Code indexes the surface code within its request.
	Code int
	// Delivered reports arrival at the destination within MaxSlots.
	Delivered bool
	// Success reports delivery with no logical error at any error
	// correction or the final decode — the paper's per-communication
	// "occurring without any errors".
	Success bool
	// Latency is the delivery slot count (meaningful when Delivered).
	Latency int
	// Corrections counts error corrections performed en route.
	Corrections int
	// Retransmissions counts Support retransmission waves (only under
	// WaitForComplete).
	Retransmissions int
	// Recoveries counts local recovery reroutes after fiber crashes.
	Recoveries int
	// Replans counts epoch re-plans: full route re-solves over the
	// surviving topology after persistent recovery failure.
	Replans int
	// SkippedCorrections counts scheduled error corrections skipped
	// because the server was down; the code then degraded to its next
	// decode opportunity (ultimately destination-only decoding).
	SkippedCorrections int
}

// RunResult aggregates all outcomes of executing one schedule.
type RunResult struct {
	Design   routing.Design
	Outcomes []Outcome
}

// Fidelity is the paper's communication fidelity: the fraction of scheduled
// communications that completed without any error.
func (r RunResult) Fidelity() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	ok := 0
	for _, o := range r.Outcomes {
		if o.Success {
			ok++
		}
	}
	return float64(ok) / float64(len(r.Outcomes))
}

// MeanLatency is the average delivery latency in slots over delivered codes.
func (r RunResult) MeanLatency() float64 {
	sum, n := 0, 0
	for _, o := range r.Outcomes {
		if o.Delivered {
			sum += o.Latency
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// DeliveredFraction is the fraction of scheduled codes that arrived within
// the slot budget.
func (r RunResult) DeliveredFraction() float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	n := 0
	for _, o := range r.Outcomes {
		if o.Delivered {
			n++
		}
	}
	return float64(n) / float64(len(r.Outcomes))
}

// Engine is the re-entrant execution engine: it owns a network and a
// schedule-independent configuration, validated once at construction, and
// executes any number of schedules against them. This is the resident mode
// the control-plane daemon runs on — network state lives in the engine while
// epoch batches of admitted transfers stream through ExecuteParallel — and
// the substrate the one-shot Run wrapper delegates to, so batch CLIs and the
// daemon share one code path.
type Engine struct {
	net *network.Network
	cfg Config

	// codes caches built surface codes by distance (0 = the configured
	// default), shared across executions so a resident engine builds each
	// geometry once. Guarded for ExecuteParallel's worker pool.
	mu    sync.Mutex
	codes map[int]*surfacecode.Code
}

// NewEngine validates the schedule-independent configuration against the
// network and returns an engine ready to execute schedules.
func NewEngine(net *network.Network, cfg Config) (*Engine, error) {
	if net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrConfig)
	}
	if err := cfg.validateEngine(net); err != nil {
		return nil, err
	}
	return &Engine{
		net:   net,
		cfg:   cfg,
		codes: map[int]*surfacecode.Code{0: cfg.Code},
	}, nil
}

// Network returns the network state the engine owns.
func (e *Engine) Network() *network.Network { return e.net }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// codeFor returns the surface code for the given distance (0 = default),
// building and caching it on first use.
func (e *Engine) codeFor(distance int) (*surfacecode.Code, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	code, ok := e.codes[distance]
	if !ok {
		var err error
		code, err = surfacecode.New(distance, e.cfg.Code.Layout())
		if err != nil {
			return nil, err
		}
		e.codes[distance] = code
	}
	return code, nil
}

// ExecuteParallel runs the schedule's codes on a deterministic worker pool.
// Each code draws from its own src.SplitN(req, code) sub-stream and outcomes
// are reduced in (request, code) order, so the result is field-for-field
// identical for every worker count — the worker-invariance contract
// daemon-admitted transfers inherit. ctx cancels between codes; workers <= 0
// selects GOMAXPROCS.
func (e *Engine) ExecuteParallel(ctx context.Context, sched routing.Schedule, src *rng.Source, workers int) (RunResult, error) {
	return e.executeParallel(ctx, sched, src, workers, e.cfg)
}

// ExecuteParallelFaults runs like ExecuteParallel but substitutes the fault
// profile for this call only — the resident daemon's live fault plane hands
// each epoch a fresh profile (its static outage overlay merged over the
// engine's configured scenario) without rebuilding the engine. A nil profile
// removes all faults for the call. The profile is validated against the
// engine's network, so an out-of-range fiber or node surfaces here as an
// error instead of panicking mid-epoch.
func (e *Engine) ExecuteParallelFaults(ctx context.Context, sched routing.Schedule, src *rng.Source, workers int, profile *faults.Profile) (RunResult, error) {
	cfg := e.cfg
	cfg.Faults = profile
	if profile != nil {
		if err := profile.ValidateAgainst(e.net); err != nil {
			return RunResult{}, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	return e.executeParallel(ctx, sched, src, workers, cfg)
}

// executeParallel is the one execution body behind Run, ExecuteParallel and
// ExecuteParallelFaults.
func (e *Engine) executeParallel(ctx context.Context, sched routing.Schedule, src *rng.Source, workers int, cfg Config) (RunResult, error) {
	if err := cfg.validateSchedule(sched); err != nil {
		return RunResult{}, err
	}
	type codeJob struct {
		ri, ci int
		req    network.Request
		cr     routing.CodeRoute
		code   *surfacecode.Code
	}
	var jobs []codeJob
	for ri, rs := range sched.Requests {
		for ci, cr := range rs.Codes {
			code, err := e.codeFor(cr.Distance)
			if err != nil {
				return RunResult{}, fmt.Errorf("request %d code %d: building distance-%d code: %w",
					ri, ci, cr.Distance, err)
			}
			jobs = append(jobs, codeJob{ri: ri, ci: ci, req: rs.Request, cr: cr, code: code})
		}
	}
	res := RunResult{Design: sched.Design}
	if len(jobs) == 0 {
		return res, nil
	}
	// Each worker decodes on one arena for the whole call; it is dropped
	// with the pool, so nothing outlives the execution.
	outcomes, err := sim.Run(ctx, len(jobs), workers, func(i int, w *sim.Worker) (Outcome, error) {
		j := jobs[i]
		stream := src.SplitN(fmt.Sprintf("req%d", j.ri), j.ci)
		dec := sim.Scratch(w, "decode", decoder.NewScratch)
		o, err := runOne(e.net, sched, cfg, j.code, j.req, j.cr, stream, j.ri, j.ci, dec)
		if err != nil {
			return Outcome{}, fmt.Errorf("request %d code %d: %w", j.ri, j.ci, err)
		}
		o.Request, o.Code = j.ri, j.ci
		return o, nil
	})
	if err != nil {
		return RunResult{}, err
	}
	res.Outcomes = outcomes
	return res, nil
}

// Run executes every scheduled code of sched on net: the one-shot batch entry
// point, a NewEngine + one-worker ExecuteParallel pair. Codes are simulated on
// independent randomness sub-streams, so results are reproducible and
// insensitive to iteration order. The background context is deliberate: Run
// is a trial's inner loop, and a progress reporter on the caller's context
// (sim.WithProgress) counts trials, not codes.
func Run(net *network.Network, sched routing.Schedule, cfg Config, src *rng.Source) (RunResult, error) {
	e, err := NewEngine(net, cfg)
	if err != nil {
		return RunResult{}, err
	}
	return e.ExecuteParallel(context.Background(), sched, src, 1)
}

// runOne dispatches on the schedule's design. ri and ci tag telemetry with
// the communication's identity; SurfNet and Raw codes decode on dec.
func runOne(net *network.Network, sched routing.Schedule, cfg Config, code *surfacecode.Code, req network.Request, cr routing.CodeRoute, src *rng.Source, ri, ci int, dec *decoder.Scratch) (Outcome, error) {
	switch sched.Design {
	case routing.SurfNet, routing.Raw:
		return newTransfer(net, sched, cfg, code, req, cr, src, ri, ci, dec).run()
	default:
		return runPurification(net, sched, cfg, req, cr, src, ri, ci)
	}
}

// runPurification executes a mainstream teleportation-only transfer (the
// first network scheme of §I). Unlike SurfNet's opportunistic segments
// (§V-B), the baseline must assemble an end-to-end chain: every fiber of the
// path simultaneously holding 1+N live entangled pairs (pairs expire after
// PairLifetime slots — the short entanglement lifespan of §I). Once the
// chain is up, entanglement swapping at every intermediate node fuses it
// into one end-to-end pair that teleports the message. The payload is
// unencoded — mainstream networks carry the data qubits themselves, with no
// error correction anywhere — so delivery succeeds with probability equal to
// the chain fidelity after purification, swap losses, and the memory decay
// accumulated while waiting.
func runPurification(net *network.Network, sched routing.Schedule, cfg Config, req network.Request, cr routing.CodeRoute, src *rng.Source, ri, ci int) (Outcome, error) {
	ins := newInstruments(cfg.Metrics)
	st := slotTracer{tracer: cfg.Tracer, reqIdx: ri, codeIdx: ci}
	// The baseline has no epochs or decodes, but its transfer still gets a
	// root span so every design's latency is decomposable from one trace.
	spans := telemetry.NewSpanSet(cfg.Tracer, ri, ci)
	transferSpan := spans.Start("transfer", 0, 0)
	n := sched.Design.PurifyRounds()
	path := cr.CorePath
	need := 1 + n
	life := cfg.PairLifetime
	if life == 0 {
		life = 20
	}
	// A down fiber destroys its live pairs and blocks generation; drift
	// degrades the delivered chain fidelity below.
	var inj faults.Injector
	if cfg.Faults != nil {
		inj = cfg.Faults.Build(net)
	}
	pathFibers := func(visit func(fi int)) {
		seen := map[int]bool{}
		for _, fi := range path {
			if !seen[fi] {
				seen[fi] = true
				visit(fi)
			}
		}
	}
	// expiries[i] holds the expiry slots of fiber i's live pairs.
	expiries := make([][]int, len(path))
	var out Outcome

	ready := false
	slot := 0
	for ; slot < cfg.MaxSlots && !ready; slot++ {
		if inj != nil {
			inj.Step(faults.Scope{Slot: slot, Src: src, Fibers: pathFibers},
				faultEmitter(ins, st))
		}
		ready = true
		for i, fi := range path {
			if inj != nil && inj.FiberDown(fi) {
				expiries[i] = expiries[i][:0] // outage destroys live pairs
				ready = false
				continue
			}
			// Expire old pairs, attempt one generation.
			live := expiries[i][:0]
			for _, exp := range expiries[i] {
				if exp > slot {
					live = append(live, exp)
				}
			}
			if len(live) < need && src.Bool(net.Fiber(fi).EntRate) {
				live = append(live, slot+life)
			}
			expiries[i] = live
			if len(live) < need {
				ready = false
			}
		}
	}
	if !ready {
		ins.timeouts.Inc()
		st.trace(cfg.MaxSlots, "core.timeout", "design", sched.Design.String())
		spans.End(transferSpan, cfg.MaxSlots, "delivered", false, "success", false)
		return out, nil // timed out waiting for the chain
	}
	out.Delivered = true
	out.Latency = slot
	// End-to-end fidelity: purified links, one swap per intermediate
	// node, and the decay the payload suffered while the chain built.
	swapEff := cfg.SwapEfficiency
	if swapEff == 0 {
		swapEff = 0.9
	}
	decay := cfg.MemoryDecay
	if decay == 0 {
		decay = 1
	}
	chain := 1.0
	for _, fi := range path {
		g := net.Fiber(fi).Fidelity
		if inj != nil {
			g = inj.Gamma(fi, g) // drift degrades the delivered chain
		}
		chain *= quantum.PurifyN(g, n)
	}
	for k := 1; k < len(path); k++ {
		chain *= swapEff
	}
	chain *= math.Pow(decay, float64(slot))
	out.Success = src.Bool(chain)
	ins.delivered.Inc()
	ins.latency.Observe(float64(out.Latency))
	st.trace(slot, "core.deliver", "design", sched.Design.String(),
		"latency", out.Latency, "success", out.Success)
	spans.End(transferSpan, slot, "delivered", true, "success", out.Success)
	return out, nil
}
