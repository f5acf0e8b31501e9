package routing

import (
	"fmt"

	"surfnet/internal/network"
	"surfnet/internal/quantum"
)

// CodeRoute is the scheduled route of one surface code: the node-disjoint
// description of where its Core and Support parts travel and where error
// corrections happen.
type CodeRoute struct {
	// CorePath lists fiber IDs from source to destination for the Core
	// part (entanglement-based channel). Empty for the Raw design.
	CorePath []int
	// SupportPath lists fiber IDs for the Support part (plain channel).
	// For Raw, the whole code travels here; empty for purification
	// designs (everything teleports on CorePath).
	SupportPath []int
	// Servers lists the node IDs where error correction is scheduled, in
	// path order. Always empty for purification designs.
	Servers []int
	// CoreNoise is the per-code accumulated Core noise after error
	// corrections (the LHS of the first Eq. 6 constraint).
	CoreNoise float64
	// TotalNoise is the per-code whole-code noise after corrections (the
	// LHS of the second Eq. 6 constraint), with the 1/2 purification
	// factor applied to the Core contribution.
	TotalNoise float64
	// Distance is the adaptively chosen code distance (QoS-adaptive
	// sizing); zero means the schedule's default code.
	Distance int
}

// ExpectedFidelity converts the scheduled total noise into the per-code
// expected communication fidelity 2^-noise (the b.4 convention).
func (cr CodeRoute) ExpectedFidelity() float64 {
	n := cr.TotalNoise
	if n < 0 {
		n = 0
	}
	return quantum.FidelityFromNoise(n)
}

// RequestSchedule is the scheduling outcome for one request.
type RequestSchedule struct {
	Request network.Request
	// Codes holds one route per accepted surface code; len(Codes) is Y_k.
	Codes []CodeRoute
}

// Accepted reports Y_k, the number of codes scheduled.
func (rs RequestSchedule) Accepted() int { return len(rs.Codes) }

// Schedule is the offline-scheduling output handed to online execution.
type Schedule struct {
	Design   Design
	Params   Params
	Requests []RequestSchedule
}

// Throughput is the paper's metric: executed communications divided by
// requested communications (§VI-C), counted in surface codes.
func (s Schedule) Throughput() float64 {
	req, acc := 0, 0
	for _, rs := range s.Requests {
		req += rs.Request.Messages
		acc += rs.Accepted()
	}
	if req == 0 {
		return 0
	}
	return float64(acc) / float64(req)
}

// AcceptedCodes counts all scheduled surface codes.
func (s Schedule) AcceptedCodes() int {
	total := 0
	for _, rs := range s.Requests {
		total += rs.Accepted()
	}
	return total
}

// MeanExpectedFidelity averages the scheduled per-code expected fidelity
// across all accepted codes; it returns 0 when nothing was scheduled.
func (s Schedule) MeanExpectedFidelity() float64 {
	sum, n := 0.0, 0
	for _, rs := range s.Requests {
		for _, cr := range rs.Codes {
			sum += cr.ExpectedFidelity()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// capacityState tracks remaining network resources while building an
// integral schedule.
type capacityState struct {
	net      *network.Network
	nodeCap  []int // remaining eta_r
	entPairs []int // remaining eta_e
}

func newCapacityState(net *network.Network, p Params) *capacityState {
	cs := &capacityState{
		net:      net,
		nodeCap:  make([]int, net.NumNodes()),
		entPairs: make([]int, net.NumFibers()),
	}
	for i := 0; i < net.NumNodes(); i++ {
		c := net.Node(i).Capacity
		if p.Design == Raw {
			c = int(float64(c) * p.RawCapacityFactor)
		}
		cs.nodeCap[i] = c
	}
	for i := 0; i < net.NumFibers(); i++ {
		cs.entPairs[i] = net.Fiber(i).EntPairs
	}
	return cs
}

// chargeNode consumes qubit-slots of storage at node v (no-op for users, who
// source/sink their own traffic).
func (cs *capacityState) chargeNode(v, qubits int) error {
	if cs.net.Node(v).Role == network.User {
		return nil
	}
	if cs.nodeCap[v] < qubits {
		return fmt.Errorf("routing: node %d out of capacity (%d < %d)", v, cs.nodeCap[v], qubits)
	}
	cs.nodeCap[v] -= qubits
	return nil
}

// chargeFiber consumes prepared entangled pairs on fiber f.
func (cs *capacityState) chargeFiber(f, pairs int) error {
	if cs.entPairs[f] < pairs {
		return fmt.Errorf("routing: fiber %d out of entangled pairs (%d < %d)", f, cs.entPairs[f], pairs)
	}
	cs.entPairs[f] -= pairs
	return nil
}
