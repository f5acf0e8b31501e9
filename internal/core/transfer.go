package core

import (
	"fmt"

	"surfnet/internal/decoder"
	"surfnet/internal/faults"
	"surfnet/internal/graph"
	"surfnet/internal/network"
	"surfnet/internal/quantum"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/surfacecode"
	"surfnet/internal/telemetry"
)

// partState tracks one part of a surface code (Core or Support) travelling
// its own route. The two parts share stop nodes (error-correction servers and
// the destination) but, as Fig. 4 illustrates, their routes may diverge —
// in particular after a local recovery reroute.
type partState struct {
	path  []int // fiber ids, source to destination
	nodes []int // node ids, len(path)+1
	pos   int   // completed hops (index into nodes)

	// Recovery backoff state: blocked parts retry their recovery search no
	// earlier than nextAttempt, and failStreak counts consecutive failed
	// attempts (feeding both the exponential backoff and the re-planning
	// trigger). Any forward progress resets both.
	nextAttempt int
	failStreak  int
}

// stopIdx returns the node-path index of the given stop node, at or after
// the current position.
func (ps *partState) stopIdx(stop int) int {
	for i := ps.pos; i < len(ps.nodes); i++ {
		if ps.nodes[i] == stop {
			return i
		}
	}
	return len(ps.nodes) - 1
}

// transfer is the slot-level state machine moving one surface code through
// the network under the SurfNet or Raw design (§V-B one-way communication).
type transfer struct {
	net    *network.Network
	cfg    Config
	code   *surfacecode.Code
	design routing.Design
	src    *rng.Source

	req      network.Request // the communication being served
	params   routing.Params  // routing parameters, for epoch re-planning
	distance int             // adaptively chosen code distance (0 = default)

	support   partState
	core      partState // unused for Raw
	stopNodes []int     // EC servers in path order, then the destination
	nextStop  int       // index into stopNodes

	// Per-data-qubit channel state.
	errProb []float64
	erased  []bool
	isCore  []bool

	inj        faults.Injector    // nil when the run injects no faults
	emitFault  func(faults.Event) // lazily built fault-event sink
	nextReplan int                // earliest slot the next re-plan may run
	failedOnce bool               // logical error at any correction so far
	out        Outcome

	ins     instruments
	reqIdx  int // request index, tagged onto telemetry
	codeIdx int // code index within the request

	// Hierarchical spans decomposing the transfer causally: one transfer
	// span holding epoch spans (route generations, rotated on re-plan),
	// holding slot spans, holding decode spans. All nil-safe when untraced.
	spans        *telemetry.SpanSet
	transferSpan int
	epochSpan    int
}

// trace emits a slot-scoped event tagged with the communication's identity.
// The nil check keeps the untraced path to a single branch.
func (t *transfer) trace(slot int, typ string, kv ...any) {
	if t.cfg.Tracer == nil {
		return
	}
	ev := telemetry.Ev(typ, kv...)
	ev.Slot, ev.Req, ev.Code = slot, t.reqIdx, t.codeIdx
	t.cfg.Tracer.Emit(ev)
}

func newTransfer(net *network.Network, sched routing.Schedule, cfg Config, code *surfacecode.Code, req network.Request, cr routing.CodeRoute, src *rng.Source) *transfer {
	nq := code.NumData()
	t := &transfer{
		net:      net,
		cfg:      cfg,
		code:     code,
		design:   sched.Design,
		src:      src,
		req:      req,
		params:   sched.Params,
		distance: cr.Distance,
		errProb:  make([]float64, nq),
		erased:   make([]bool, nq),
		isCore:   code.CoreMask(),
		ins:      newInstruments(cfg.Metrics),
	}
	if cfg.Faults != nil {
		t.inj = cfg.Faults.Build(net)
	}
	t.support.path = append([]int(nil), cr.SupportPath...)
	t.support.nodes = nodeSeq(net, req.Src, t.support.path)
	if sched.Design == routing.SurfNet {
		corePath := cr.CorePath
		if len(corePath) == 0 {
			corePath = cr.SupportPath
		}
		t.core.path = append([]int(nil), corePath...)
		t.core.nodes = nodeSeq(net, req.Src, t.core.path)
	}
	t.stopNodes = append(append([]int(nil), cr.Servers...), req.Dst)
	return t
}

// nodeSeq expands a fiber path from src into its node sequence.
func nodeSeq(net *network.Network, src int, fibers []int) []int {
	nodes := []int{src}
	v := src
	for _, fi := range fibers {
		v = net.Other(fi, v)
		nodes = append(nodes, v)
	}
	return nodes
}

// run drives the transfer to completion or timeout, one step per slot. It
// owns the span hierarchy: the transfer span brackets the whole attempt, an
// epoch span brackets each route generation (rotated by replan), and every
// slot gets its own span so latency decomposes causally in the trace.
func (t *transfer) run() (Outcome, error) {
	t.spans = telemetry.NewSpanSet(t.cfg.Tracer, t.reqIdx, t.codeIdx)
	t.transferSpan = t.spans.Start("transfer", 0, 0)
	t.epochSpan = t.spans.Start("epoch", t.transferSpan, 0)
	for slot := 0; slot < t.cfg.MaxSlots; slot++ {
		// Faults and re-planning run before the slot span opens, so a
		// re-plan rotates the epoch first and the slot attaches to the
		// epoch it actually executes in.
		t.stepFaults(slot)
		t.maybeReplan(slot)
		slotSpan := t.spans.Start("slot", t.epochSpan, slot)
		done, err := t.step(slot, slotSpan)
		t.spans.End(slotSpan, slot+1)
		if err != nil {
			t.endSpans(slot + 1)
			return t.out, err
		}
		if done {
			t.endSpans(slot + 1)
			return t.out, nil
		}
	}
	t.ins.timeouts.Inc()
	t.trace(t.cfg.MaxSlots, "core.timeout",
		"stop", t.nextStop, "stops", len(t.stopNodes))
	t.endSpans(t.cfg.MaxSlots)
	return t.out, nil // timed out: not delivered
}

// endSpans closes the current epoch and the transfer span with the outcome
// summary, so a trace reader can decompose the final latency without
// re-deriving it from slot events.
func (t *transfer) endSpans(slot int) {
	t.spans.End(t.epochSpan, slot)
	t.spans.End(t.transferSpan, slot,
		"delivered", t.out.Delivered, "success", t.out.Success,
		"corrections", t.out.Corrections, "recoveries", t.out.Recoveries,
		"replans", t.out.Replans)
}

// step advances the transfer by one slot; done reports delivery. slotSpan is
// the slot's span, the parent of any decode performed this slot.
func (t *transfer) step(slot, slotSpan int) (done bool, err error) {
	stop := t.stopNodes[t.nextStop]
	supStop := t.support.stopIdx(stop)
	if t.support.pos < supStop {
		t.advanceSupport(slot, supStop)
		supStop = t.support.stopIdx(stop) // recovery may reroute
	}
	coreArrived := true
	if t.design == routing.SurfNet {
		coreStop := t.core.stopIdx(stop)
		if t.core.pos < coreStop {
			t.advanceCore(slot, coreStop)
			coreStop = t.core.stopIdx(stop)
		}
		coreArrived = t.core.pos >= coreStop
	}
	if t.support.pos != supStop || !coreArrived {
		return false, nil
	}
	atDst := t.nextStop == len(t.stopNodes)-1
	if !atDst && t.nodeDown(stop) {
		// The scheduled server is out of service: skip this correction and
		// let the accumulated error ride to the next decode opportunity
		// (ultimately the destination).
		t.out.SkippedCorrections++
		t.ins.correctionSkips.Inc()
		t.trace(slot, "core.correction_skip", "node", stop, "stop", t.nextStop)
		t.nextStop++
		return false, nil // passing through still costs the slot
	}
	if t.cfg.WaitForComplete && t.anyErased() {
		t.retransmit(supStop)
		t.out.Retransmissions++
		t.ins.retransmissions.Inc()
		return false, nil // retransmission wave costs this slot
	}
	decodeSpan := t.spans.Start("decode", slotSpan, slot)
	ok, err := t.decode(slot)
	if err != nil {
		t.spans.End(decodeSpan, slot)
		return false, err
	}
	t.spans.End(decodeSpan, slot, "failed", !ok)
	if !ok {
		t.failedOnce = true
	}
	if atDst {
		t.out.Delivered = true
		t.out.Latency = slot + 1 // decode completes this slot
		t.out.Success = !t.failedOnce
		t.ins.delivered.Inc()
		t.ins.latency.Observe(float64(t.out.Latency))
		t.trace(slot, "core.deliver",
			"latency", t.out.Latency, "success", t.out.Success,
			"corrections", t.out.Corrections, "recoveries", t.out.Recoveries)
		return true, nil
	}
	t.out.Corrections++
	t.nextStop++
	return false, nil
}

// remainingFibers visits every fiber still ahead of either part.
func (t *transfer) remainingFibers(visit func(fi int)) {
	seen := map[int]bool{}
	for i := t.support.pos; i < len(t.support.path); i++ {
		fi := t.support.path[i]
		if !seen[fi] {
			seen[fi] = true
			visit(fi)
		}
	}
	if t.design == routing.SurfNet {
		for i := t.core.pos; i < len(t.core.path); i++ {
			fi := t.core.path[i]
			if !seen[fi] {
				seen[fi] = true
				visit(fi)
			}
		}
	}
}

// upcomingServers visits the error-correction servers still ahead. The
// destination is excluded: it always decodes.
func (t *transfer) upcomingServers(visit func(v int)) {
	for i := t.nextStop; i < len(t.stopNodes)-1; i++ {
		visit(t.stopNodes[i])
	}
}

// stepFaults advances the fault injector over the transfer's remaining scope.
// The enumeration callbacks fix the order randomness is consumed in, keeping
// fault-injected runs byte-identical across worker counts.
func (t *transfer) stepFaults(slot int) {
	if t.inj == nil {
		return
	}
	if t.emitFault == nil {
		t.emitFault = faultEmitter(t.ins, t.cfg.Tracer, t.reqIdx, t.codeIdx)
	}
	t.inj.Step(faults.Scope{
		Slot:   slot,
		Src:    t.src,
		Fibers: t.remainingFibers,
		Nodes:  t.upcomingServers,
	}, t.emitFault)
}

// fiberDown reports whether fiber fi is down at the last stepped slot.
func (t *transfer) fiberDown(fi int) bool {
	return t.inj != nil && t.inj.FiberDown(fi)
}

// nodeDown reports whether node v is out of service.
func (t *transfer) nodeDown(v int) bool {
	return t.inj != nil && t.inj.NodeDown(v)
}

// fiberFidelity returns fiber fi's effective gamma, degraded by any active
// drift episode. Without drift the nominal value passes through unchanged.
func (t *transfer) fiberFidelity(fi int) float64 {
	g := t.net.Fiber(fi).Fidelity
	if t.inj != nil {
		g = t.inj.Gamma(fi, g)
	}
	return g
}

// advanceSupport moves the Support part (or the whole code for Raw) one hop
// through the plain channel, applying photon loss and fiber noise. Blocked
// hops attempt a local recovery path.
func (t *transfer) advanceSupport(slot, stop int) {
	fi := t.support.path[t.support.pos]
	if t.fiberDown(fi) {
		t.tryRecovery(&t.support, slot, stop)
		return
	}
	f := t.net.Fiber(fi)
	gamma := t.fiberFidelity(fi)
	lost := 0
	for q := range t.errProb {
		if t.design == routing.SurfNet && t.isCore[q] {
			continue // core travels the entanglement channel
		}
		if t.erased[q] {
			continue
		}
		if t.src.Bool(f.LossProb) {
			t.erased[q] = true
			lost++
			continue
		}
		flip := t.cfg.ChannelErrorScale * (1 - gamma)
		t.errProb[q] = 1 - (1-t.errProb[q])*(1-flip)
	}
	if lost > 0 {
		t.ins.photonLoss.Add(int64(lost))
		t.trace(slot, "core.photon_loss", "fiber", fi, "lost", lost)
	}
	t.support.pos++
	t.support.failStreak, t.support.nextAttempt = 0, 0
}

// advanceCore attempts an opportunistic segment move (§V-B): the Core part
// advances as soon as entanglement is established across at least MinSegment
// consecutive fibers ahead (or the full remaining distance to the stop).
// A downed next fiber triggers a local recovery reroute.
func (t *transfer) advanceCore(slot, stop int) {
	if t.fiberDown(t.core.path[t.core.pos]) {
		t.tryRecovery(&t.core, slot, stop)
		return
	}
	dist := stop - t.core.pos
	prefix := 0
	for i := t.core.pos; i < stop; i++ {
		fi := t.core.path[i]
		if t.fiberDown(fi) || !t.src.Bool(t.net.Fiber(fi).EntRate) {
			break
		}
		prefix++
	}
	need := t.cfg.MinSegment
	if dist < need {
		need = dist
	}
	if prefix < need {
		t.ins.coreStalls.Inc() // waiting for entanglement this slot
		return
	}
	// Teleport across the established segment: purified pair fidelities
	// (one purification round per fiber on the entanglement-based channel,
	// §IV-C) fused by one swap per segment-internal node.
	segFid := 1.0
	for i := 0; i < prefix; i++ {
		g := t.fiberFidelity(t.core.path[t.core.pos+i])
		segFid *= quantum.Purify(g, g)
	}
	swapEff := t.cfg.SwapEfficiency
	if swapEff == 0 {
		swapEff = 0.9
	}
	for k := 1; k < prefix; k++ {
		segFid *= swapEff
	}
	flip := t.cfg.ChannelErrorScale * (1 - segFid)
	for q := range t.errProb {
		if !t.isCore[q] {
			continue
		}
		t.errProb[q] = 1 - (1-t.errProb[q])*(1-flip)
	}
	t.ins.teleports.Inc()
	t.ins.teleportHops.Add(int64(prefix))
	t.trace(slot, "core.teleport",
		"from", t.core.nodes[t.core.pos], "to", t.core.nodes[t.core.pos+prefix],
		"hops", prefix)
	t.core.pos += prefix
	t.core.failStreak, t.core.nextAttempt = 0, 0
}

// retransmit re-sends lost Support qubits across the current segment (the
// WaitForComplete mode): each erased qubit is re-delivered with fresh segment
// noise, possibly being lost again.
func (t *transfer) retransmit(stop int) {
	segStart := t.segmentStart(stop)
	for q := range t.erased {
		if !t.erased[q] {
			continue
		}
		t.erased[q] = false
		t.errProb[q] = 0
		for i := segStart; i < stop; i++ {
			fi := t.support.path[i]
			f := t.net.Fiber(fi)
			if t.src.Bool(f.LossProb) {
				t.erased[q] = true
				break
			}
			flip := t.cfg.ChannelErrorScale * (1 - t.fiberFidelity(fi))
			t.errProb[q] = 1 - (1-t.errProb[q])*(1-flip)
		}
	}
}

// segmentStart returns the Support node index where the current segment began
// (the previous stop, or the source).
func (t *transfer) segmentStart(stop int) int {
	if t.nextStop == 0 {
		return 0
	}
	prev := t.stopNodes[t.nextStop-1]
	for i := stop; i >= 0; i-- {
		if t.support.nodes[i] == prev {
			return i
		}
	}
	return 0
}

// tryRecovery splices a local recovery path around down fibers for one part,
// from its blocked position to the next stop (§V-B: "a node can locally
// replace a failed route with a recovery path leading to the next designated
// node"). The parts recover independently — their routes need not coincide.
// Under RecoveryBackoff the search is rate-limited: each consecutive failure
// doubles the wait before the next attempt, so a partitioned code stops
// re-running Dijkstra every slot.
func (t *transfer) tryRecovery(part *partState, slot, stop int) {
	if t.cfg.DisableRecovery {
		return
	}
	if slot < part.nextAttempt {
		t.ins.backoffSkips.Inc()
		return
	}
	partName := "support"
	if part == &t.core {
		partName = "core"
	}
	from := part.nodes[part.pos]
	target := part.nodes[stop]
	g := graph.NewWeighted(t.net.NumNodes())
	for fi := 0; fi < t.net.NumFibers(); fi++ {
		if t.fiberDown(fi) {
			continue
		}
		f := t.net.Fiber(fi)
		okNode := func(v int) bool {
			if v == from || v == target {
				return true
			}
			return t.net.Node(v).Role != network.User && !t.nodeDown(v)
		}
		if !okNode(f.A) || !okNode(f.B) {
			continue
		}
		g.AddEdge(graph.Edge{ID: fi, U: f.A, V: f.B, Weight: f.Noise()})
	}
	sp := g.Dijkstra(from)
	alt := sp.PathTo(g, target)
	if alt == nil {
		t.ins.recoveryFails.Inc()
		t.noteRecoveryFailure(part, slot)
		return
	}
	altFibers := make([]int, len(alt))
	for i, ei := range alt {
		altFibers[i] = g.Edge(ei).ID
	}
	// Splice: keep the travelled prefix, replace the current segment.
	newPath := append(append([]int(nil), part.path[:part.pos]...), altFibers...)
	newPath = append(newPath, part.path[stop:]...)
	part.path = newPath
	part.nodes = nodeSeq(t.net, part.nodes[0], part.path)
	part.failStreak, part.nextAttempt = 0, 0
	t.out.Recoveries++
	t.ins.recoveries.Inc()
	t.trace(slot, "core.recovery",
		"part", partName, "from", from, "to", target, "detour", len(altFibers))
}

// noteRecoveryFailure advances the part's failure streak and, under
// RecoveryBackoff, schedules the next attempt exponentially later (capped at
// RecoveryBackoffMax).
func (t *transfer) noteRecoveryFailure(part *partState, slot int) {
	part.failStreak++
	if t.cfg.RecoveryBackoff <= 0 {
		return // legacy policy: retry every blocked slot
	}
	wait := t.cfg.RecoveryBackoff
	maxWait := t.cfg.backoffMax()
	for i := 1; i < part.failStreak && wait < maxWait; i++ {
		wait *= 2
	}
	if wait > maxWait {
		wait = maxWait
	}
	part.nextAttempt = slot + wait
}

// maybeReplan re-solves the request's routing over the surviving topology
// once either part has accumulated ReplanAfterFails consecutive failed
// recovery attempts — the end-to-end fallback when local repair keeps
// failing. Attempts are rate-limited to one per ReplanEpoch slots.
func (t *transfer) maybeReplan(slot int) {
	if t.cfg.ReplanAfterFails <= 0 || slot < t.nextReplan {
		return
	}
	streak := t.support.failStreak
	if t.core.failStreak > streak {
		streak = t.core.failStreak
	}
	if streak < t.cfg.ReplanAfterFails {
		return
	}
	t.nextReplan = slot + t.cfg.replanEpoch()
	t.replan(slot)
}

// replan runs the offline scheduler (LP relaxation, falling back to the
// greedy heuristic) for this one request over the surviving topology and, on
// success, restarts the transfer from the source on the fresh route. The
// restart models end-to-end retransmission: the source re-encodes the
// message, so the channel state and failure history reset.
func (t *transfer) replan(slot int) {
	surv, err := t.net.Mask(t.nodeDown, t.fiberDown, nil)
	p := t.params
	if t.distance > 0 {
		// Pin the adaptive distance: the code is already built.
		p.AdaptiveDistances = []int{t.distance}
	}
	req := t.req
	req.Messages = 1 // re-admit just this communication
	var sched routing.Schedule
	if err == nil {
		sched, err = routing.ScheduleLP(surv, []network.Request{req}, p)
		if err != nil || len(sched.Requests) == 0 || len(sched.Requests[0].Codes) == 0 {
			sched, err = routing.Greedy(surv, []network.Request{req}, p, nil, nil)
		}
	}
	if err != nil || len(sched.Requests) == 0 || len(sched.Requests[0].Codes) == 0 {
		t.ins.replanFails.Inc()
		t.trace(slot, "core.replan_failure",
			"support_streak", t.support.failStreak, "core_streak", t.core.failStreak)
		return
	}
	t.setRoute(sched.Requests[0].Codes[0])
	t.out.Replans++
	t.ins.replans.Inc()
	// A successful re-plan starts a new route generation: rotate the epoch
	// span so subsequent slots attach to the fresh epoch.
	t.spans.End(t.epochSpan, slot, "replanned", true)
	t.epochSpan = t.spans.Start("epoch", t.transferSpan, slot)
	t.trace(slot, "core.replan",
		"hops", len(t.support.path), "stops", len(t.stopNodes))
}

// setRoute restarts the transfer from the source on a fresh route: fresh
// encode, clean channel state, stop list rebuilt from the new schedule.
func (t *transfer) setRoute(cr routing.CodeRoute) {
	t.support = partState{path: append([]int(nil), cr.SupportPath...)}
	t.support.nodes = nodeSeq(t.net, t.req.Src, t.support.path)
	if t.design == routing.SurfNet {
		corePath := cr.CorePath
		if len(corePath) == 0 {
			corePath = cr.SupportPath
		}
		t.core = partState{path: append([]int(nil), corePath...)}
		t.core.nodes = nodeSeq(t.net, t.req.Src, t.core.path)
	} else {
		t.core = partState{}
	}
	t.stopNodes = append(append([]int(nil), cr.Servers...), t.req.Dst)
	t.nextStop = 0
	for q := range t.errProb {
		t.errProb[q] = 0
		t.erased[q] = false
	}
	t.failedOnce = false
}

// anyErased reports whether any Support qubit is currently missing.
func (t *transfer) anyErased() bool {
	for _, e := range t.erased {
		if e {
			return true
		}
	}
	return false
}

// decode samples the accumulated channel error and runs the configured
// decoder over both graphs, then resets the channel state (a corrected code
// is fresh). It reports whether the code survived without a logical error.
func (t *transfer) decode(slot int) (bool, error) {
	code := t.code
	frame := quantum.NewFrame(code.NumData())
	mixed := [4]quantum.Pauli{quantum.I, quantum.X, quantum.Y, quantum.Z}
	probs := make([]float64, code.NumData())
	nErased := 0
	for q := range frame {
		if t.erased[q] {
			frame[q] = mixed[t.src.IntN(4)]
			nErased++
			continue
		}
		// Independent X/Z flips at the accumulated channel error rate.
		if t.src.Bool(t.errProb[q]) {
			frame[q] = frame[q].Mul(quantum.X)
		}
		if t.src.Bool(t.errProb[q]) {
			frame[q] = frame[q].Mul(quantum.Z)
		}
		probs[q] = t.errProb[q]
	}
	res, stats, err := decoder.DecodeFrameMetered(code, t.cfg.Decoder, frame, t.erased, probs, t.cfg.Metrics)
	if err != nil {
		return false, fmt.Errorf("core: decoding at stop %d: %w", t.nextStop, err)
	}
	t.ins.decodes.Inc()
	t.ins.erasedAtDecode.Observe(float64(nErased))
	if res.Failed() {
		t.ins.decodeFailures.Inc()
	}
	t.trace(slot, "core.decode",
		"node", t.stopNodes[t.nextStop], "stop", t.nextStop,
		"erased", nErased, "syndrome_weight", stats.SyndromeWeight,
		"correction_weight", stats.CorrectionWeight, "failed", res.Failed())
	for q := range t.errProb {
		t.errProb[q] = 0
		t.erased[q] = false
	}
	return !res.Failed(), nil
}
