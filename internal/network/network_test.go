package network

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// line builds a 3-node path network user-switch-user.
func line(t *testing.T) *Network {
	t.Helper()
	n, err := New(
		[]Node{
			{ID: 0, Role: User},
			{ID: 1, Role: Switch, Capacity: 10},
			{ID: 2, Role: User},
		},
		[]Fiber{
			{ID: 0, A: 0, B: 1, Fidelity: 0.9, EntPairs: 5, EntRate: 0.5, LossProb: 0.1},
			{ID: 1, A: 1, B: 2, Fidelity: 0.8, EntPairs: 5, EntRate: 0.5, LossProb: 0.1},
		},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	nodes := []Node{{ID: 0, Role: User}, {ID: 1, Role: User}}
	fiber := Fiber{ID: 0, A: 0, B: 1, Fidelity: 0.9}
	tests := []struct {
		name   string
		nodes  []Node
		fibers []Fiber
	}{
		{"misnumbered node", []Node{{ID: 1, Role: User}, {ID: 0, Role: User}}, []Fiber{fiber}},
		{"bad role", []Node{{ID: 0}, {ID: 1, Role: User}}, []Fiber{fiber}},
		{"negative capacity", []Node{{ID: 0, Role: Switch, Capacity: -1}, {ID: 1, Role: User}}, []Fiber{fiber}},
		{"misnumbered fiber", nodes, []Fiber{{ID: 3, A: 0, B: 1, Fidelity: 0.9}}},
		{"self-loop fiber", nodes, []Fiber{{ID: 0, A: 0, B: 0, Fidelity: 0.9}}},
		{"fidelity range", nodes, []Fiber{{ID: 0, A: 0, B: 1, Fidelity: 1.5}}},
		{"ent rate range", nodes, []Fiber{{ID: 0, A: 0, B: 1, Fidelity: 0.9, EntRate: 2}}},
		{"loss range", nodes, []Fiber{{ID: 0, A: 0, B: 1, Fidelity: 0.9, LossProb: -0.5}}},
	}
	for _, tt := range tests {
		if _, err := New(tt.nodes, tt.fibers); err == nil {
			t.Errorf("%s: want error", tt.name)
		}
	}
}

func TestDisconnectedRejected(t *testing.T) {
	_, err := New(
		[]Node{{ID: 0, Role: User}, {ID: 1, Role: User}, {ID: 2, Role: User}},
		[]Fiber{{ID: 0, A: 0, B: 1, Fidelity: 0.9}},
	)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestAccessors(t *testing.T) {
	n := line(t)
	if n.NumNodes() != 3 || n.NumFibers() != 2 {
		t.Fatalf("sizes: %d nodes, %d fibers", n.NumNodes(), n.NumFibers())
	}
	if n.Node(1).Role != Switch || n.Node(1).Capacity != 10 {
		t.Error("node accessor wrong")
	}
	if n.Fiber(1).Fidelity != 0.8 {
		t.Error("fiber accessor wrong")
	}
	if got := n.Other(0, 0); got != 1 {
		t.Errorf("Other(0,0) = %d, want 1", got)
	}
	if got := n.Other(0, 1); got != 0 {
		t.Errorf("Other(0,1) = %d, want 0", got)
	}
	if len(n.Incident(1)) != 2 {
		t.Errorf("Incident(1) = %v", n.Incident(1))
	}
	if got := n.PathNodes(2, []int{1, 0}); !slices.Equal(got, []int{2, 1, 0}) {
		t.Errorf("PathNodes(2, [1 0]) = %v, want [2 1 0]", got)
	}
	if got := n.PathNodes(0, nil); !slices.Equal(got, []int{0}) {
		t.Errorf("PathNodes(0, nil) = %v, want [0]", got)
	}
}

func TestRoleQueries(t *testing.T) {
	n := line(t)
	if got := n.NodesByRole(User); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("users = %v", got)
	}
	if got := n.Relays(); len(got) != 1 || got[0] != 1 {
		t.Errorf("relays = %v", got)
	}
	if Server.String() != "server" || User.String() != "user" || Switch.String() != "switch" {
		t.Error("role strings wrong")
	}
}

func TestFiberNoise(t *testing.T) {
	f := Fiber{Fidelity: 0.5}
	if math.Abs(f.Noise()-1) > 1e-12 {
		t.Errorf("Noise(0.5) = %v, want 1 (log2)", f.Noise())
	}
	if (Fiber{Fidelity: 1}).Noise() != 0 {
		t.Error("Noise(1) should be 0")
	}
}

func TestRequestValidate(t *testing.T) {
	n := line(t)
	ok := Request{Src: 0, Dst: 2, Messages: 3}
	if err := ok.Validate(n); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	bad := []Request{
		{Src: 0, Dst: 1, Messages: 1},  // dst is a switch
		{Src: 0, Dst: 0, Messages: 1},  // loop
		{Src: 0, Dst: 2, Messages: 0},  // empty
		{Src: -1, Dst: 2, Messages: 1}, // out of range
	}
	for i, r := range bad {
		if err := r.Validate(n); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

// TestMask checks the outage mask on the user-switch-user line: a down fiber
// keeps its endpoints but offers nothing, a down node loses its capacity and
// takes its fibers down with it, live adjusts only the fibers that stay up,
// the base network is left as it was, and New's error comes back.
func TestMask(t *testing.T) {
	n := line(t)
	none := func(int) bool { return false }
	only := func(id int) func(int) bool { return func(i int) bool { return i == id } }
	dead := func(f Fiber) bool {
		return f.EntPairs == 0 && f.EntRate == 0 && f.LossProb == 1 && f.Fidelity == 0.5
	}

	m, err := n.Mask(none, only(0), func(f *Fiber) { f.Fidelity /= 2 })
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Fiber(0); !dead(f) || f.A != 0 || f.B != 1 {
		t.Errorf("down fiber = %+v, want endpoints 0-1 and no scheduling value", f)
	}
	if f := m.Fiber(1); f.Fidelity != 0.4 || f.EntPairs != 5 {
		t.Errorf("live fiber = %+v, want fidelity 0.4 and its 5 pairs", f)
	}
	if m.Node(1).Capacity != 10 {
		t.Errorf("up node capacity = %d, want 10", m.Node(1).Capacity)
	}

	m, err = n.Mask(only(1), none, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Node(1).Capacity != 0 || !dead(m.Fiber(0)) || !dead(m.Fiber(1)) {
		t.Errorf("down switch: node %+v, fibers %+v %+v", m.Node(1), m.Fiber(0), m.Fiber(1))
	}
	if m.NumNodes() != 3 || m.NumFibers() != 2 || len(m.Incident(1)) != 2 {
		t.Errorf("mask changed the graph: %d nodes, %d fibers", m.NumNodes(), m.NumFibers())
	}

	if n.Node(1).Capacity != 10 || n.Fiber(0).Fidelity != 0.9 || n.Fiber(1).Fidelity != 0.8 {
		t.Errorf("base network changed: %+v %+v %+v", n.Node(1), n.Fiber(0), n.Fiber(1))
	}
	if _, err := n.Mask(none, none, func(f *Fiber) { f.Fidelity = 2 }); err == nil {
		t.Error("invalid masked fidelity accepted")
	}
}
