// Package network models the physical quantum network of §IV-A: user,
// switch, and server nodes interconnected by optical fibers, each fiber
// carrying the two SurfNet communication channels — the entanglement-based
// channel (quantum teleportation of Core qubits over prepared entangled
// pairs) and the plain channel (Support qubits transmitted directly as
// photons).
package network

import (
	"errors"
	"fmt"

	"surfnet/internal/quantum"
)

// Role classifies a network node (§IV-A Components).
type Role int

// Node roles.
const (
	// User nodes generate communication requests.
	User Role = 1 + iota
	// Switch nodes relay both channels: they continuously generate
	// entangled pairs and re-encode passing Support photons.
	Switch
	// Server nodes are switches with larger memories that can addition-
	// ally perform error correction on complete surface codes.
	Server
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case User:
		return "user"
	case Switch:
		return "switch"
	case Server:
		return "server"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Node is a network node.
type Node struct {
	ID   int
	Role Role
	// Capacity is the storage capacity eta_r: the number of data qubits
	// the node can hold per scheduling round. Zero for users (they source
	// and sink their own traffic).
	Capacity int
}

// Fiber is an optical fiber between two nodes, carrying both channels.
type Fiber struct {
	ID int
	A  int
	B  int
	// Fidelity is gamma in [0,1], measured and constant during routing
	// (§V assumption 2).
	Fidelity float64
	// EntPairs is eta_e: the number of entangled pairs prepared across
	// this fiber and available to the scheduler per round.
	EntPairs int
	// EntRate is the per-slot probability that one entanglement
	// generation attempt across this fiber succeeds, used by the online
	// execution engine.
	EntRate float64
	// LossProb is the per-traversal probability that a plain-channel
	// photon is lost (arriving as an erasure).
	LossProb float64
}

// Noise returns the fiber's additive noise mu = log2(1/gamma) (§V-A).
func (f Fiber) Noise() float64 { return quantum.Noise(f.Fidelity) }

// Network is the static network state handed to the routing protocol.
type Network struct {
	nodes  []Node
	fibers []Fiber
	adj    [][]int32 // node -> incident fiber ids
}

// Validation errors.
var (
	ErrDisconnected = errors.New("network: graph is not connected")
	ErrBadTopology  = errors.New("network: invalid topology")
)

// New assembles a network from nodes and fibers, assigning dense IDs in
// order. Node IDs must equal their slice positions.
func New(nodes []Node, fibers []Fiber) (*Network, error) {
	n := &Network{
		nodes:  append([]Node(nil), nodes...),
		fibers: append([]Fiber(nil), fibers...),
		adj:    make([][]int32, len(nodes)),
	}
	for i, nd := range n.nodes {
		if nd.ID != i {
			return nil, fmt.Errorf("%w: node at position %d has ID %d", ErrBadTopology, i, nd.ID)
		}
		switch nd.Role {
		case User, Switch, Server:
		default:
			return nil, fmt.Errorf("%w: node %d has invalid role %v", ErrBadTopology, i, nd.Role)
		}
		if nd.Capacity < 0 {
			return nil, fmt.Errorf("%w: node %d has negative capacity", ErrBadTopology, i)
		}
	}
	for i, f := range n.fibers {
		if f.ID != i {
			return nil, fmt.Errorf("%w: fiber at position %d has ID %d", ErrBadTopology, i, f.ID)
		}
		if f.A < 0 || f.A >= len(nodes) || f.B < 0 || f.B >= len(nodes) || f.A == f.B {
			return nil, fmt.Errorf("%w: fiber %d endpoints (%d,%d)", ErrBadTopology, i, f.A, f.B)
		}
		if err := quantum.CheckFidelity(f.Fidelity); err != nil {
			return nil, fmt.Errorf("fiber %d: %w", i, err)
		}
		if f.EntPairs < 0 || f.EntRate < 0 || f.EntRate > 1 || f.LossProb < 0 || f.LossProb > 1 {
			return nil, fmt.Errorf("%w: fiber %d channel parameters out of range", ErrBadTopology, i)
		}
		n.adj[f.A] = append(n.adj[f.A], int32(i))
		n.adj[f.B] = append(n.adj[f.B], int32(i))
	}
	if !n.connected() {
		return nil, ErrDisconnected
	}
	return n, nil
}

// connected verifies the §V assumption that the network is connected.
func (n *Network) connected() bool {
	if len(n.nodes) == 0 {
		return false
	}
	seen := make([]bool, len(n.nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fi := range n.adj[v] {
			f := n.fibers[fi]
			u := f.A
			if u == v {
				u = f.B
			}
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == len(n.nodes)
}

// NumNodes reports the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumFibers reports the fiber count.
func (n *Network) NumFibers() int { return len(n.fibers) }

// Node returns node i.
func (n *Network) Node(i int) Node { return n.nodes[i] }

// Fiber returns fiber i.
func (n *Network) Fiber(i int) Fiber { return n.fibers[i] }

// Incident returns the fiber IDs incident to node v. The slice is owned by
// the network and must not be mutated.
func (n *Network) Incident(v int) []int32 { return n.adj[v] }

// Other returns the endpoint of fiber fi opposite to node v.
func (n *Network) Other(fi, v int) int {
	f := n.fibers[fi]
	if f.A == v {
		return f.B
	}
	return f.A
}

// PathNodes expands a fiber path starting at src into the visited node
// sequence (src, ..., dst).
func (n *Network) PathNodes(src int, fibers []int) []int {
	nodes := append(make([]int, 0, len(fibers)+1), src)
	v := src
	for _, fi := range fibers {
		v = n.Other(fi, v)
		nodes = append(nodes, v)
	}
	return nodes
}

// Mask copies the network with outages applied, for planning around them.
// A down fiber, or one touching a down node, keeps its endpoints, so IDs
// stay dense and the graph stays connected, but loses all scheduling value:
// 0 pairs, rate 0, loss 1 and fidelity 0.5. A down node loses its storage
// capacity. live, when non-nil, may adjust each fiber that stays up. The
// copy is built by New, and the error is New's.
func (n *Network) Mask(nodeDown, fiberDown func(int) bool, live func(*Fiber)) (*Network, error) {
	nodes := make([]Node, len(n.nodes))
	for v, nd := range n.nodes {
		if nodeDown(v) {
			nd.Capacity = 0
		}
		nodes[v] = nd
	}
	fibers := make([]Fiber, len(n.fibers))
	for fi, f := range n.fibers {
		if fiberDown(fi) || nodeDown(f.A) || nodeDown(f.B) {
			f.EntPairs, f.EntRate, f.LossProb, f.Fidelity = 0, 0, 1, 0.5
		} else if live != nil {
			live(&f)
		}
		fibers[fi] = f
	}
	return New(nodes, fibers)
}

// NodesByRole returns the IDs of all nodes with the given role, ascending.
func (n *Network) NodesByRole(r Role) []int {
	var out []int
	for _, nd := range n.nodes {
		if nd.Role == r {
			out = append(out, nd.ID)
		}
	}
	return out
}

// Relays returns all switch and server IDs (the set R of the routing
// formulation, which includes servers).
func (n *Network) Relays() []int {
	var out []int
	for _, nd := range n.nodes {
		if nd.Role == Switch || nd.Role == Server {
			out = append(out, nd.ID)
		}
	}
	return out
}

// Request is a communication request k = [(s_k, d_k), i_k] (§V Table I).
type Request struct {
	// Src and Dst are user node IDs.
	Src, Dst int
	// Messages is i_k, the number of surface codes to transfer.
	Messages int
}

// Validate checks the request against the network.
func (r Request) Validate(n *Network) error {
	for _, v := range []int{r.Src, r.Dst} {
		if v < 0 || v >= n.NumNodes() {
			return fmt.Errorf("%w: request endpoint %d out of range", ErrBadTopology, v)
		}
		if n.Node(v).Role != User {
			return fmt.Errorf("%w: request endpoint %d is a %v, want user", ErrBadTopology, v, n.Node(v).Role)
		}
	}
	if r.Src == r.Dst {
		return fmt.Errorf("%w: request loops on node %d", ErrBadTopology, r.Src)
	}
	if r.Messages <= 0 {
		return fmt.Errorf("%w: request carries %d messages", ErrBadTopology, r.Messages)
	}
	return nil
}
