package routing

import (
	"fmt"
	"math"

	"surfnet/internal/graph"
	"surfnet/internal/network"
	"surfnet/internal/quantum"
	"surfnet/internal/telemetry"
)

// Greedy builds an integral schedule by admitting codes one at a time along
// shortest-noise paths, subject to the capacity, entanglement, and noise
// constraints of Eq. (2)-(6). It is both a standalone scheduler (used for
// the Purification baselines, which the integer program does not model) and
// the integral repair step of the LP rounding scheduler.
//
// targets caps how many codes may be admitted per request; pass nil to use
// each request's full message count. order gives the admission order over
// request indices; pass nil for natural order.
func Greedy(net *network.Network, reqs []network.Request, p Params, targets []int, order []int) (Schedule, error) {
	if err := p.Validate(); err != nil {
		return Schedule{}, err
	}
	for i, r := range reqs {
		if err := r.Validate(net); err != nil {
			return Schedule{}, fmt.Errorf("request %d: %w", i, err)
		}
	}
	if targets == nil {
		targets = make([]int, len(reqs))
		for i, r := range reqs {
			targets[i] = r.Messages
		}
	}
	if order == nil {
		order = make([]int, len(reqs))
		for i := range order {
			order[i] = i
		}
	}
	cs := newCapacityState(net, p)
	sched := Schedule{Design: p.Design, Params: p, Requests: make([]RequestSchedule, len(reqs))}
	for i, r := range reqs {
		sched.Requests[i] = RequestSchedule{Request: r}
	}
	admitted, shortfall := 0, 0
	for _, k := range order {
		r := reqs[k]
		limit := targets[k]
		if limit > r.Messages {
			limit = r.Messages
		}
		for c := 0; c < limit; c++ {
			route, ok := scheduleOneCode(cs, r, p)
			if !ok {
				shortfall += limit - c
				telemetry.Emit(p.Tracer, telemetry.Ev("routing.admission_stop",
					"request", k, "admitted", c, "target", limit))
				break // resources or noise exhausted for this request
			}
			sched.Requests[k].Codes = append(sched.Requests[k].Codes, route)
			admitted++
		}
	}
	p.Metrics.Counter("routing.codes_admitted").Add(int64(admitted))
	p.Metrics.Counter("routing.codes_unadmitted").Add(int64(shortfall))
	return sched, nil
}

// perNodeNeed returns the storage a single code consumes at each transit
// relay under the given design. Purification baselines teleport one
// unencoded payload qubit per message; the code-carrying designs store the
// full surface code.
func perNodeNeed(p Params) int {
	if p.Design.PurifyRounds() > 0 {
		return 1
	}
	return p.TotalQubits() // both parts pass every transit relay
}

// perFiberPairs returns the entangled pairs a single code consumes per fiber:
// n teleported Core qubits for SurfNet, one payload teleport plus N
// purification pairs for the mainstream baselines.
func perFiberPairs(p Params) int {
	switch p.Design {
	case Raw:
		return 0 // plain channels only
	case SurfNet:
		return p.CoreQubits
	default:
		return 1 + p.Design.PurifyRounds()
	}
}

// arcNoise returns the effective noise of fiber f under the design:
// purification designs see the purified fidelity.
func arcNoise(f network.Fiber, p Params) float64 {
	if n := p.Design.PurifyRounds(); n > 0 {
		return quantum.Noise(quantum.PurifyN(f.Fidelity, n))
	}
	return f.Noise()
}

// scheduleOneCode finds and charges a route for one surface code, picking an
// adaptive code distance when enabled. It returns ok=false when no feasible
// route exists under the remaining resources.
func scheduleOneCode(cs *capacityState, r network.Request, p Params) (CodeRoute, bool) {
	if len(p.AdaptiveDistances) == 0 {
		return scheduleFixedCode(cs, r, p)
	}
	// QoS-adaptive sizing: smallest distance first — cheapest in storage
	// and entangled pairs — escalating to larger codes whose scaled
	// thresholds tolerate noisier routes.
	for _, d := range p.AdaptiveDistances {
		route, ok := scheduleFixedCode(cs, r, p.atDistance(d))
		if ok {
			route.Distance = d
			return route, true
		}
	}
	return CodeRoute{}, false
}

// scheduleFixedCode finds and charges a route for one surface code of the
// exact size described by p.
func scheduleFixedCode(cs *capacityState, r network.Request, p Params) (CodeRoute, bool) {
	fibers, nodes, ok := admissiblePath(cs, r, p)
	if !ok {
		return CodeRoute{}, false
	}
	// Accumulated raw noise along the path.
	raw := 0.0
	for _, fi := range fibers {
		raw += arcNoise(cs.net.Fiber(fi), p)
	}
	var servers []int
	var coreNoise, totalNoise float64
	switch p.Design {
	case SurfNet:
		n, m := float64(p.CoreQubits), float64(p.SupportQubits)
		weighted := (0.5*n + m) / (n + m) * raw
		k, ok := chooseCorrections(raw, weighted, p, countServers(cs.net, nodes))
		if !ok {
			return CodeRoute{}, false
		}
		servers = pickServers(cs.net, nodes, k)
		coreNoise = raw - p.Omega*float64(k)
		totalNoise = weighted - p.Omega*float64(k)
	case Raw:
		k, ok := chooseCorrections(math.Inf(1), raw, p, countServers(cs.net, nodes))
		if !ok {
			return CodeRoute{}, false
		}
		servers = pickServers(cs.net, nodes, k)
		totalNoise = raw - p.Omega*float64(k)
	default: // purification: no error correction available
		if raw > p.TotalThreshold {
			return CodeRoute{}, false
		}
		totalNoise = raw
	}
	// Charge resources: transit relays store the code, fibers supply
	// entangled pairs. The endpoints are users and charge nothing.
	need := perNodeNeed(p)
	for _, v := range nodes[1 : len(nodes)-1] {
		if err := cs.chargeNode(v, need); err != nil {
			return CodeRoute{}, false
		}
	}
	pairs := perFiberPairs(p)
	if pairs > 0 {
		for _, fi := range fibers {
			if err := cs.chargeFiber(fi, pairs); err != nil {
				return CodeRoute{}, false
			}
		}
	}
	route := CodeRoute{
		Servers:    servers,
		CoreNoise:  coreNoise,
		TotalNoise: totalNoise,
	}
	switch p.Design {
	case Raw:
		route.SupportPath = fibers
	case SurfNet:
		route.CorePath = fibers
		route.SupportPath = fibers
	default:
		route.CorePath = fibers
	}
	return route, true
}

// chooseCorrections picks the number of error corrections k satisfying the
// Eq. (6) noise constraints in aggregate form:
//
//	coreRaw  - omega*k in [0, Wc]   (SurfNet only; pass +Inf to skip)
//	totalRaw - omega*k <= W
//	k <= servers available on the path
func chooseCorrections(coreRaw, totalRaw float64, p Params, serversOnPath int) (int, bool) {
	need := 0
	if !math.IsInf(coreRaw, 1) && coreRaw > p.CoreThreshold {
		need = int(math.Ceil((coreRaw - p.CoreThreshold) / p.Omega))
	}
	if totalRaw > p.TotalThreshold {
		if k := int(math.Ceil((totalRaw - p.TotalThreshold) / p.Omega)); k > need {
			need = k
		}
	}
	if need == 0 {
		return 0, true
	}
	if p.Omega == 0 {
		return 0, false
	}
	if need > serversOnPath {
		return 0, false
	}
	// The >= 0 side of the Core constraint forbids over-correction.
	if !math.IsInf(coreRaw, 1) && coreRaw-p.Omega*float64(need) < -1e-9 {
		return 0, false
	}
	return need, true
}

// countServers counts transit servers along the node path.
func countServers(net *network.Network, nodes []int) int {
	n := 0
	for _, v := range nodes[1 : len(nodes)-1] {
		if net.Node(v).Role == network.Server {
			n++
		}
	}
	return n
}

// pickServers selects k error-correction servers spaced evenly along the
// path.
func pickServers(net *network.Network, nodes []int, k int) []int {
	if k == 0 {
		return nil
	}
	var servers []int
	for _, v := range nodes[1 : len(nodes)-1] {
		if net.Node(v).Role == network.Server {
			servers = append(servers, v)
		}
	}
	if k >= len(servers) {
		return servers
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		// Block-evenly spaced; indices are strictly increasing for k <=
		// len(servers), so no duplicates arise.
		out = append(out, servers[(i*len(servers))/k])
	}
	return out
}

// admissiblePath runs Dijkstra over the residual network: only relays with
// enough remaining storage may transit, and only fibers with enough remaining
// entangled pairs may carry the code.
func admissiblePath(cs *capacityState, r network.Request, p Params) (fibers []int, nodes []int, ok bool) {
	net := cs.net
	need := perNodeNeed(p)
	pairs := perFiberPairs(p)
	admitNode := func(v int) bool {
		if v == r.Src || v == r.Dst {
			return true
		}
		nd := net.Node(v)
		if nd.Role == network.User {
			return false
		}
		return cs.nodeCap[v] >= need
	}
	g := graph.NewWeighted(net.NumNodes())
	for fi := 0; fi < net.NumFibers(); fi++ {
		f := net.Fiber(fi)
		if pairs > 0 && cs.entPairs[fi] < pairs {
			continue
		}
		if !admitNode(f.A) || !admitNode(f.B) {
			continue
		}
		g.AddEdge(graph.Edge{ID: fi, U: f.A, V: f.B, Weight: arcNoise(f, p)})
	}
	sp := g.Dijkstra(r.Src)
	path := sp.PathTo(g, r.Dst)
	if path == nil {
		return nil, nil, false
	}
	fibers = make([]int, len(path))
	for i, ei := range path {
		fibers[i] = g.Edge(ei).ID
	}
	return fibers, net.PathNodes(r.Src, fibers), true
}
