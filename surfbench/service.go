package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"surfnet/internal/core"
	"surfnet/internal/decoder"
	"surfnet/internal/experiments"
	"surfnet/internal/lp"
	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/service"
	"surfnet/internal/telemetry"
	"surfnet/internal/topology"
)

const (
	// epochMax is both the service's EpochMax and the closed loop's
	// in-flight count.
	epochMax = 8
	// daemonNetSeed is surfnetd's default -net-seed. Networks drawn from
	// other seeds can hold request sets whose k=8 LP runs into the simplex
	// iteration limit, one epoch then taking about 100 s, so the network is
	// the one the daemon ships with; the seed drives everything else.
	daemonNetSeed = 1
	// setupEvery is how many timed rounds an untraced run runs between two
	// throwaway set-ups; setup_s is the median over these and the set-up
	// before the timed phase. A set-up takes about as long as a round, and
	// its LP is as memory-bound, so set-ups spread over the run see the
	// host as the rounds do, where a block of them at the start sees one
	// moment of it. Each warms up on its own request set, because the
	// warm-up LP's time depends on it. Set-ups stop once they have taken
	// setupBudget, so an iteration-limit warm-up is paid once.
	setupEvery  = 10
	setupBudget = 5 * time.Second
	// slowEpoch marks an epoch whose LP ran into the simplex iteration limit:
	// such an epoch takes tens of seconds against about 0.2 s for the others. The
	// replay skips it, because re-planning and re-solving it would take
	// several times as long again.
	slowEpoch = 5 * time.Second
	// liveShare is the share of a traced run's seconds the live loop gets.
	// The replay re-plans, re-solves and re-executes every epoch, about
	// twice the live work, in the rest.
	liveShare = 0.3
	// untracedReplayEpochs is how many epochs, the warm-up one included, an
	// untraced run replays for its output check.
	untracedReplayEpochs = 3
	// maxDrainRounds bounds the rounds after the timed phase that finish
	// the transfers still in flight.
	maxDrainRounds = 1000
	// heapRounds is the timed round after which heap_mb is read. The
	// service keeps every transfer it served, so a fixed round count keeps
	// the number of retained transfers the same however fast rounds run.
	heapRounds = 20
	// faultSteps is how many times a traced run steps the fault plane.
	faultSteps = 5000
	// reconcileTolerance is the relative difference within which a sum of
	// layer times is said to reconcile with the end-to-end time it explains.
	reconcileTolerance = 0.15
)

// flightSegments are the attribution segment classes the metrics report.
var flightSegments = []string{
	service.SegQueueWait, service.SegPlan, service.SegExecute,
	service.SegRetryBackoff, service.SegFaultStall,
}

// inflight is one transfer the closed-loop client is waiting on.
type inflight struct {
	id     string
	posted time.Time
	timed  bool // submitted during the timed phase
}

// clientStats accumulates what the client observed of timed transfers.
type clientStats struct {
	posts     int // POSTs during the timed phase
	refused   int // of those, answered with anything but 202
	terminal  int // transfers that reached a terminal state during the timed phase
	latencyMs []float64
	delivered int
	success   int
	accepted  int
	messages  int
	// failedTrans counts timed transfers that ended failed, in any class;
	// unserved counts those the service could not carry at all: no path
	// admitted, or the deadline expired.
	failedTrans int
	unserved    int
}

// observe accounts one timed transfer that reached a terminal state.
func (cs *clientStats) observe(st service.TransferStatus) {
	cs.delivered += st.DeliveredCodes
	cs.success += st.SuccessCodes
	cs.accepted += st.AcceptedCodes
	cs.messages += st.Messages
	if st.State != service.StateFailed {
		return
	}
	cs.failedTrans++
	if st.FailureClass == service.FailNoPath || st.FailureClass == service.FailDeadline {
		cs.unserved++
	}
}

// tally counts POSTs as ops. An op fails when the service refused it. A
// transfer that ends failed, in any class, is an answer the service gave; its
// codes lower fidelity instead. The planner leaves about one transfer in 3000
// no_path on this workload (see README.md), so counting those here would make
// failed depend on how many rounds a run fits.
func (cs clientStats) tally() tally {
	return tally{attempted: cs.posts, failed: cs.refused}
}

// failedShare is the share of POSTs that were refused or whose transfer
// ended failed, in any failure class.
func (cs clientStats) failedShare() float64 {
	return ratio(float64(cs.failedTrans+cs.refused), float64(cs.posts))
}

// fidelity is the share of requested codes that were delivered and decoded.
// A planner that admits fewer codes lowers it as surely as a worse decoder.
func (cs clientStats) fidelity() float64 {
	return ratio(float64(cs.success), float64(cs.messages))
}

// serviceRig is one in-process surfnetd: engine, planner and service behind
// the registered HTTP handlers, driven without sockets.
type serviceRig struct {
	net     *network.Network
	params  routing.Params
	svc     *service.Service
	mux     *http.ServeMux
	svcSeed uint64
	reqSrc  *rng.Source

	inflight []inflight
	ids      []string // every admitted transfer, in admission order
	// timedFrom indexes the first ID the measured loop submitted; the
	// warm-up epoch's transfers come before it.
	timedFrom int
}

// newServiceRig builds the service and runs one untimed warm-up epoch on the
// request set the seed gives set-up number setup.
func newServiceRig(seed uint64, setup int) (*serviceRig, error) {
	root := rng.New(seed)
	net, err := topology.Generate(topology.DefaultParams(topology.Abundant, topology.GoodConnection), rng.New(daemonNetSeed))
	if err != nil {
		return nil, fmt.Errorf("generating network: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Decoder = decoder.SurfNet{}
	eng, err := core.NewEngine(net, cfg)
	if err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}
	params := routing.DefaultParams(routing.SurfNet)
	r := &serviceRig{
		net:     net,
		params:  params,
		svcSeed: root.Split("service").Uint64() | 1,
		mux:     http.NewServeMux(),
	}
	r.svc, err = service.New(eng, routing.NewPlanner(params), r.serviceConfig())
	if err != nil {
		return nil, fmt.Errorf("building service: %w", err)
	}
	r.svc.RegisterRoutes(r.mux.Handle)
	r.reqSrc = root.SplitN("warmup", setup)
	var warm clientStats
	if err := r.round(nil, true, false, &warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := r.drain(&warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.reqSrc = root.Split("requests")
	r.timedFrom = len(r.ids)
	return r, nil
}

// serviceConfig is the workload's service: one worker, epochs stepped by the
// client, no retries and no faults.
func (r *serviceRig) serviceConfig() service.Config {
	return service.Config{EpochMax: epochMax, Workers: 1, Seed: r.svcSeed, FaultTick: -1}
}

// post submits one transfer through the POST handler.
func (r *serviceRig) post(req service.TransferRequest) (int, service.TransferStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, service.TransferStatus{}, err
	}
	rec := httptest.NewRecorder()
	r.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/transfers", bytes.NewReader(body)))
	var st service.TransferStatus
	if rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return rec.Code, st, fmt.Errorf("decoding POST answer: %w", err)
		}
	}
	return rec.Code, st, nil
}

// get reads one transfer through the GET handler.
func (r *serviceRig) get(id string) (service.TransferStatus, error) {
	rec := httptest.NewRecorder()
	r.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/transfers/"+id, nil))
	var st service.TransferStatus
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("GET %s answered %d", id, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("decoding GET answer: %w", err)
	}
	return st, nil
}

// transferSeq is the numeric part of a transfer ID ("t-17" -> 17).
func transferSeq(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "t-"), 10, 64) // IDs are minted by the service as t-<seq>
	return n
}

func terminal(state string) bool {
	return state == service.StateCompleted || state == service.StateFailed
}

// round is one closed-loop step: top the in-flight set up to the epoch size,
// run one epoch, and poll every in-flight transfer once. timed marks
// transfers submitted and finished in it as part of the timed phase; tr,
// when non-nil, records spans around the calls.
func (r *serviceRig) round(tr *tracer, submit, timed bool, cs *clientStats) error {
	for submit && len(r.inflight) < epochMax {
		rs, err := topology.GenRequests(r.net, 1, 2, r.reqSrc)
		if err != nil {
			return err
		}
		req := service.TransferRequest{Tenant: "bench", Src: rs[0].Src, Dst: rs[0].Dst, Messages: rs[0].Messages}
		posted := time.Now()
		h := tr.begin("service.submit", -1, 0)
		code, st, err := r.post(req)
		tr.end(h)
		if err != nil {
			return err
		}
		if timed {
			cs.posts++
		}
		if code != http.StatusAccepted {
			// The queue never fills in a closed loop of epochMax; an
			// answer other than 202 is counted and ends the top-up.
			if timed {
				cs.refused++
			}
			break
		}
		tr.setID(h, transferSeq(st.ID))
		r.ids = append(r.ids, st.ID)
		r.inflight = append(r.inflight, inflight{id: st.ID, posted: posted, timed: timed})
	}
	// A traced epoch span carries the epoch number, so the reconciliation
	// can match it with the replay's spans of the same epoch.
	var epoch int64
	if tr != nil {
		epoch = r.svc.Status().Epochs
	}
	h := tr.begin("service.step_epoch", -1, epoch)
	_, err := r.svc.StepEpoch(context.Background())
	tr.end(h)
	if err != nil {
		return err
	}
	keep := r.inflight[:0]
	for _, f := range r.inflight {
		h := tr.begin("service.get", -1, transferSeq(f.id))
		st, err := r.get(f.id)
		tr.end(h)
		if err != nil {
			return err
		}
		if !terminal(st.State) {
			keep = append(keep, f)
			continue
		}
		if !f.timed {
			continue
		}
		cs.latencyMs = append(cs.latencyMs, float64(time.Since(f.posted).Nanoseconds())/1e6)
		if timed {
			cs.terminal++
		}
		cs.observe(st)
	}
	r.inflight = keep
	return nil
}

// drain runs rounds without new submissions until nothing is in flight.
func (r *serviceRig) drain(cs *clientStats) error {
	for i := 0; len(r.inflight) > 0; i++ {
		if i == maxDrainRounds {
			return fmt.Errorf("%d transfers still in flight after %d drain rounds", len(r.inflight), i)
		}
		if err := r.round(nil, false, false, cs); err != nil {
			return err
		}
	}
	return nil
}

func runService(cfg runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var setupTotal time.Duration
	setUp := func() (*serviceRig, error) {
		// Every set-up starts from a collected heap, so none of them pays
		// for an earlier one's garbage.
		runtime.GC()
		start := time.Now()
		rig, err := newServiceRig(cfg.seed, len(setups))
		setupTotal += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
		return rig, err
	}
	rig, err := setUp()
	if err != nil {
		return nil, err
	}

	live := cfg.duration()
	if tr != nil {
		live = time.Duration(float64(live) * liveShare)
	}
	var cs clientStats
	// A traced run traces a pseudo-random half of its rounds, so the tracing
	// overhead is measured on the same stretch of host time and a periodic
	// cost, such as a GC cycle every other round, does not fall on one side.
	pick := rand.New(rand.NewPCG(cfg.seed, 0))
	var roundS [2][]float64
	// Throughput, CPU and allocation per op are medians over rounds: an
	// epoch whose LP runs into the iteration limit takes tens of seconds, and
	// one such round would otherwise decide the whole run's figures.
	var opsPerS, cpuMs, allocKB []float64
	heap := -1.0
	runtime.GC()
	phaseStart, setupBefore := time.Now(), setupTotal
	for i := 0; time.Since(phaseStart) < live; i++ {
		k, rt := 0, (*tracer)(nil)
		if tr != nil && pick.IntN(2) == 1 {
			k, rt = 1, tr
		}
		before := cs.terminal
		u0 := readUsage()
		if err := rig.round(rt, true, true, &cs); err != nil {
			return nil, err
		}
		c := costBetween(u0, readUsage())
		roundS[k] = append(roundS[k], c.seconds)
		if n := cs.terminal - before; n > 0 {
			opsPerS = append(opsPerS, float64(n)/c.seconds)
			cpuMs = append(cpuMs, c.cpuMsPerOp(n))
			allocKB = append(allocKB, c.allocKBPerOp(n))
		}
		if i == heapRounds-1 {
			heap = liveHeapMB()
		}
		// Every transfer ends in its first epoch, so nothing is in flight
		// between rounds and a set-up there delays no transfer's latency.
		if tr == nil && (i+1)%setupEvery == 0 && len(rig.inflight) == 0 && setupTotal < setupBudget {
			if _, err := setUp(); err != nil {
				return nil, err
			}
		}
	}
	phaseS := (time.Since(phaseStart) - (setupTotal - setupBefore)).Seconds()
	if heap < 0 {
		heap = liveHeapMB()
	}
	if err := rig.drain(&cs); err != nil {
		return nil, err
	}

	o.tally = cs.tally()
	o.set("setup_s", median(setups))
	o.set("ops_per_s", median(opsPerS))
	o.set("p50_ms", percentile(cs.latencyMs, 0.5))
	o.set("p90_ms", percentile(cs.latencyMs, 0.9))
	o.set("cpu_ms_per_op", median(cpuMs))
	o.set("alloc_kb_per_op", median(allocKB))
	o.set("heap_mb", heap)
	o.set("fidelity", cs.fidelity())
	rounds, slow, longest := 0, 0, 0.0
	for _, rs := range roundS {
		for _, x := range rs {
			rounds++
			if x > slowEpoch.Seconds() {
				slow++
			}
			longest = max(longest, x)
		}
	}
	o.printf("timed phase: %.3f s without its set-ups, %d rounds, %d transfers terminal, %d POSTs, %d latencies; ops_per_s, cpu_ms_per_op and alloc_kb_per_op are medians over rounds; heap_mb is read after round %d; setup_s is the median of %d set-ups (%.3f s in all)",
		phaseS, rounds, cs.terminal, cs.posts, len(cs.latencyMs), heapRounds, len(setups), setupTotal.Seconds())
	o.printf("slow rounds (over %v, the simplex iteration limit): %d of %d, longest %.3f s; whole-phase throughput %.4g transfers/s",
		slowEpoch, slow, rounds, longest, ratio(float64(cs.terminal), phaseS))
	o.printf("fidelity %.6g ratio (%d codes decoded of %d requested)", cs.fidelity(), cs.success, cs.messages)
	o.printf("failed_share %.6g ratio (%d failed transfers, %d of them no_path or deadline, %d non-202 answers, %d POSTs)",
		cs.failedShare(), cs.failedTrans, cs.unserved, cs.refused, cs.posts)
	o.printf("accepted_share %.6g ratio (%d codes admitted of %d requested)",
		ratio(float64(cs.accepted), float64(cs.messages)), cs.accepted, cs.messages)
	o.printf("logical_error_rate %.6g ratio (%d of %d delivered codes failed decoding)",
		1-ratio(float64(cs.success), float64(cs.delivered)), cs.delivered-cs.success, cs.delivered)

	st := rig.svc.Status()
	o.check("drain", st.Admitted == st.Completed+st.Failed && st.QueueDepth == 0 && st.Retrying == 0,
		"admitted %d, completed %d, failed %d, queued %d, retrying %d",
		st.Admitted, st.Completed, st.Failed, st.QueueDepth, st.Retrying)
	fl, err := rig.flights(o)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		// Every run checks the replay; an untraced one only on its first
		// epochs, outside the timed phase.
		return o, rig.replay(nil, fl, o, untracedReplayEpochs)
	}

	// Round times are compared by their medians: a round's time depends on
	// its request set.
	if len(roundS[0]) > 0 && len(roundS[1]) > 0 {
		untraced, traced := median(roundS[0]), median(roundS[1])
		o.set("trace.overhead_share", traced/untraced-1)
		o.printf("tracing overhead: median round %.3f ms untraced vs %.3f ms traced", untraced*1e3, traced*1e3)
	}
	o.set("service.submit_us", median(tr.selfSeconds("service.submit"))*1e6)
	o.set("service.get_us", median(tr.selfSeconds("service.get"))*1e6)
	o.set("service.step_epoch_ms", median(tr.selfSeconds("service.step_epoch"))*1e3)
	o.set("service.retries_per_op", ratio(float64(st.Retries), float64(st.Admitted)))
	for _, seg := range flightSegments {
		o.set("service.flight."+seg+"_ms", fl.segmentMs[seg])
	}
	if err := rig.replay(tr, fl, o, len(fl.epochs)); err != nil {
		return nil, err
	}
	if err := rig.stepFaults(tr, o); err != nil {
		return nil, err
	}
	// Reconcile each traced live epoch with the replay of the same epoch.
	step, plan, exec := tr.secondsByID("service.step_epoch"), tr.secondsByID("routing.plan"), tr.secondsByID("core.execute")
	var stepS, layerS float64
	matched := 0
	for e, s := range step {
		if p, ok := plan[e]; ok {
			stepS += s
			layerS += p + exec[e]
			matched++
		}
	}
	stepMean, layerMean := ratio(stepS, float64(matched))*1e3, ratio(layerS, float64(matched))*1e3
	o.printf("reconcile epoch over %d traced epochs: mean routing.plan + core.execute %.3f ms, mean service.step_epoch %.3f ms, service self %.3f ms; flights' mean plan %.3f ms and execute %.3f ms per transfer; within %.0f%%: %v",
		matched, layerMean, stepMean, stepMean-layerMean, fl.segmentMs[service.SegPlan], fl.segmentMs[service.SegExecute],
		reconcileTolerance*100, math.Abs(stepMean-layerMean) <= reconcileTolerance*stepMean)
	return o, nil
}

// stepFaults times (*Service).StepFaults. The workload's own service runs no
// faults, so a second service on the same engine and seed, with the fault
// plane armed at ResilienceProfile(1) and no epochs run, is stepped instead.
func (r *serviceRig) stepFaults(tr *tracer, o *outcome) error {
	cfg := r.serviceConfig()
	p := experiments.ResilienceProfile(1)
	cfg.Faults = &p
	svc, err := service.New(r.svc.Engine(), routing.NewPlanner(r.params), cfg)
	if err != nil {
		return fmt.Errorf("building the fault-plane service: %w", err)
	}
	outages := 0
	for i := 0; i < faultSteps; i++ {
		h := tr.begin("faults.step", -1, int64(i))
		outages += svc.StepFaults()
		tr.end(h)
	}
	o.set("faults.step_us", median(tr.selfSeconds("faults.step"))*1e6)
	o.set("faults.outages_per_step", ratio(float64(outages), faultSteps))
	return nil
}

// attempt is one dispatch of a transfer into an epoch, read from its flight.
type attempt struct {
	epoch     int64
	wallNs    int64
	liveNs    int64 // epoch_assigned to executed, as the service ran it
	seq       int64
	req       network.Request
	accepted  int64
	delivered int64
	success   int64
}

// flightData is what the flights of every admitted transfer yield.
type flightData struct {
	epochs    map[int64][]attempt
	segmentMs map[string]float64 // mean per timed transfer
}

// flights reads every admitted transfer's trace through (*Service).Trace,
// checks that its attribution segments sum exactly to its wall latency, and
// collects the epochs' request sets for the replay.
func (r *serviceRig) flights(o *outcome) (flightData, error) {
	fd := flightData{epochs: make(map[int64][]attempt), segmentMs: make(map[string]float64)}
	bad := 0
	firstBad := ""
	for i, id := range r.ids {
		tr, err := r.svc.Trace(id)
		if err != nil {
			return fd, fmt.Errorf("trace of %s: %w", id, err)
		}
		st, err := r.svc.Get(id)
		if err != nil {
			return fd, err
		}
		var sum int64
		for _, seg := range tr.Segments {
			sum += seg.WallNs
			if i >= r.timedFrom {
				fd.segmentMs[seg.Class] += float64(seg.WallNs) / 1e6
			}
		}
		if sum != tr.TotalWallNs || float64(tr.TotalWallNs)/1e9 != st.WallLatencySeconds {
			bad++
			if firstBad == "" {
				firstBad = fmt.Sprintf("%s: segments %d ns, total %d ns, wall_latency_seconds %v", id, sum, tr.TotalWallNs, st.WallLatencySeconds)
			}
		}
		req := network.Request{Src: st.Src, Dst: st.Dst, Messages: st.Messages}
		var cur *attempt
		var atts []attempt
		for _, ev := range tr.Events {
			switch ev.Kind {
			case telemetry.FlightEpochAssigned.String():
				atts = append(atts, attempt{epoch: ev.Detail["epoch"], wallNs: ev.WallNs,
					seq: transferSeq(id), req: req, accepted: -1, delivered: -1, success: -1})
				cur = &atts[len(atts)-1]
			case telemetry.FlightExecuted.String():
				if cur != nil {
					cur.accepted, cur.delivered, cur.success = ev.Detail["accepted"], ev.Detail["delivered"], ev.Detail["success"]
					cur.liveNs = ev.WallNs - cur.wallNs
				}
			}
		}
		for _, a := range atts {
			fd.epochs[a.epoch] = append(fd.epochs[a.epoch], a)
		}
	}
	o.check("flight_attribution", bad == 0, "%d of %d flights have segments summing exactly to wall_latency_seconds%s",
		len(r.ids)-bad, len(r.ids), suffix(firstBad))
	// Segment means cover the transfers the measured loop submitted.
	for k := range fd.segmentMs {
		fd.segmentMs[k] /= float64(max(len(r.ids)-r.timedFrom, 1))
	}
	return fd, nil
}

func suffix(s string) string {
	if s == "" {
		return ""
	}
	return "; first mismatch " + s
}

// replay re-plans the first maxEpochs epochs the service ran, slow ones
// left out, on a shadow planner fed the same request sets in the same order,
// outside the timed path, and times each layer's public function on it:
// Plan, BuildLP, a cold and a warm SolveLP, Greedy with the LP's rounded
// targets, Greedy alone, and the engine's execute on the service's own epoch
// stream. It checks that the shadow plans admit, deliver and decode what the
// service did.
func (r *serviceRig) replay(tr *tracer, fl flightData, o *outcome, maxEpochs int) error {
	reg := telemetry.NewRegistry()
	params := r.params
	params.Metrics = reg
	shadow := routing.NewPlanner(params)
	eng := r.svc.Engine()
	var epochs []int64
	skipped := 0
	for e, atts := range fl.epochs {
		if slowAttempt(atts) {
			skipped++
			continue
		}
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	epochs = epochs[:min(maxEpochs, len(epochs))]

	var (
		plans, iterLimit, cold, mismatches   int
		pivots, degenerate, messages         int
		greedyAccepted, attempts             int
		vars, rows, allocKB                  []float64
		slots, recoveries, replans, outcomes float64
		delivered                            float64
		firstMismatch                        string
		prevBasis                            []int
	)
	for _, e := range epochs {
		atts := fl.epochs[e]
		sort.Slice(atts, func(i, j int) bool {
			if atts[i].wallNs != atts[j].wallNs {
				return atts[i].wallNs < atts[j].wallNs
			}
			return atts[i].seq < atts[j].seq
		})
		reqs := make([]network.Request, len(atts))
		for i, a := range atts {
			reqs[i] = a.req
			messages += a.req.Messages
		}
		attempts += len(atts)

		ep := tr.begin("replay.epoch", -1, e)
		h := tr.begin("routing.plan", ep, e)
		sched, err := shadow.Plan(r.net, reqs)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("shadow plan of epoch %d: %w", e, err)
		}
		plans++
		h = tr.begin("routing.build_lp", ep, e)
		form, err := routing.BuildLP(r.net, reqs, params)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("building epoch %d LP: %w", e, err)
		}
		vars = append(vars, float64(form.Problem.NumVars()))
		rows = append(rows, float64(form.Problem.NumConstraints()))
		before := readUsage()
		h = tr.begin("lp.solve", ep, e)
		res, err := form.SolveLP()
		tr.end(h)
		allocKB = append(allocKB, float64(readUsage().totalAlloc-before.totalAlloc)/1e3)
		switch {
		case errors.Is(err, lp.ErrIterationLimit):
			iterLimit++
		case err != nil:
			return fmt.Errorf("solving epoch %d LP: %w", e, err)
		default:
			cold++
			pivots += res.Stats.Pivots
			degenerate += res.Stats.DegeneratePivots
		}
		if prevBasis != nil {
			h = tr.begin("lp.solve_warm", ep, e)
			_, werr := form.SolveLPFrom(prevBasis)
			tr.end(h)
			if errors.Is(werr, lp.ErrIterationLimit) {
				iterLimit++
			} else if werr != nil {
				return fmt.Errorf("warm-solving epoch %d LP: %w", e, werr)
			}
		}
		if err == nil && res.Status == lp.Optimal {
			prevBasis = res.Basis
			targets, order := roundTargets(reqs, res.Y)
			h = tr.begin("routing.round_repair", ep, e)
			_, err = routing.Greedy(r.net, reqs, params, targets, order)
			tr.end(h)
			if err != nil {
				return fmt.Errorf("round/repair of epoch %d: %w", e, err)
			}
		}
		h = tr.begin("routing.greedy", ep, e)
		g, err := routing.Greedy(r.net, reqs, params, nil, nil)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("greedy epoch %d: %w", e, err)
		}
		greedyAccepted += g.AcceptedCodes()

		src := rng.New(r.svcSeed).SplitN("epoch", int(e))
		h = tr.begin("core.execute", ep, e)
		run, err := eng.ExecuteParallel(context.Background(), sched, src, 1)
		tr.end(h)
		tr.end(ep)
		if err != nil {
			return fmt.Errorf("executing epoch %d: %w", e, err)
		}
		got := make([][3]int64, len(atts))
		for i := range atts {
			if i < len(sched.Requests) {
				got[i][0] = int64(sched.Requests[i].Accepted())
			}
		}
		for _, oc := range run.Outcomes {
			outcomes++
			recoveries += float64(oc.Recoveries)
			replans += float64(oc.Replans)
			if oc.Delivered {
				delivered++
				slots += float64(oc.Latency)
				got[oc.Request][1]++
			}
			if oc.Success {
				got[oc.Request][2]++
			}
		}
		for i, a := range atts {
			if got[i] != [3]int64{a.accepted, a.delivered, a.success} {
				mismatches++
				if firstMismatch == "" {
					firstMismatch = fmt.Sprintf("epoch %d t-%d: replay accepted/delivered/success %v, service %v",
						e, a.seq, got[i], [3]int64{a.accepted, a.delivered, a.success})
				}
			}
		}
	}
	o.check("replay_accepted_codes", mismatches == 0,
		"%d of %d replayed attempts admit, deliver and decode what the service did%s",
		attempts-mismatches, attempts, suffix(firstMismatch))

	ms := func(name string) float64 { return median(tr.selfSeconds(name)) * 1e3 }
	o.set("routing.plan_ms", ms("routing.plan"))
	o.set("routing.build_lp_ms", ms("routing.build_lp"))
	o.set("routing.round_repair_ms", ms("routing.round_repair"))
	o.set("routing.greedy_ms", ms("routing.greedy"))
	o.set("routing.greedy_accepted_share", ratio(float64(greedyAccepted), float64(messages)))
	hits, _ := shadow.WarmStats()
	o.set("routing.warm_hit_share", ratio(float64(hits), float64(plans)))
	o.set("routing.lp_fallback_share", ratio(float64(reg.Counter("routing.greedy_fallbacks").Value()), float64(plans)))
	o.set("lp.solve_ms", ms("lp.solve"))
	o.set("lp.solve_warm_ms", ms("lp.solve_warm"))
	o.set("lp.pivots_per_solve", ratio(float64(pivots), float64(cold)))
	o.set("lp.degenerate_share", ratio(float64(degenerate), float64(pivots)))
	v, m := median(vars), median(rows)
	o.set("lp.vars", v)
	o.set("lp.rows", m)
	o.set("lp.tableau_mb", m*(v+m+1)*8/1e6)
	o.set("lp.alloc_kb_per_solve", mean(allocKB))
	o.set("lp.iteration_limit_solves", float64(iterLimit))
	o.set("core.execute_ms", ms("core.execute"))
	o.set("core.slots_per_code", ratio(slots, delivered))
	o.set("core.recoveries_per_code", ratio(recoveries, outcomes))
	o.set("core.replans_per_code", ratio(replans, outcomes))
	o.set("service.epoch_fill", ratio(float64(attempts), float64(len(epochs))))
	o.printf("replay: %d epochs, %d skipped as slow (over %v live), %d LP solves hit the iteration limit; lp.tableau_mb is computed as rows x (vars + rows + 1) x 8 B",
		len(epochs), skipped, slowEpoch, iterLimit)
	return nil
}

// slowAttempt reports whether the service took longer than slowEpoch from
// assigning any of these attempts to executing it.
func slowAttempt(atts []attempt) bool {
	for _, a := range atts {
		if time.Duration(a.liveNs) > slowEpoch {
			return true
		}
	}
	return false
}

// roundTargets rounds each request's fractional Y to the nearest integer,
// capped at its demand, and orders requests by decreasing Y: the targets and
// order the LP planner hands to Greedy for repair.
func roundTargets(reqs []network.Request, y []float64) (targets, order []int) {
	targets = make([]int, len(reqs))
	order = make([]int, len(reqs))
	for k := range reqs {
		targets[k] = min(int(math.Floor(y[k]+0.5)), reqs[k].Messages)
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return y[order[i]] > y[order[j]] })
	return targets, order
}
