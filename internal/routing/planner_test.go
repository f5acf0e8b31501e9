package routing

import (
	"reflect"
	"testing"

	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/topology"
)

func plannerScenario(t *testing.T) (*network.Network, []network.Request) {
	t.Helper()
	src := rng.New(6060)
	net, err := topology.Generate(topology.DefaultParams(topology.Sufficient, topology.GoodConnection), src)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := topology.GenRequests(net, 6, 3, src.Split("req"))
	if err != nil {
		t.Fatal(err)
	}
	return net, reqs
}

// TestPlannerMatchesScheduleLPThroughput pins the resident path to the batch
// scheduler: every round, the planner's schedule is ScheduleLP's, code for
// code, because the planner keeps no state between plans.
func TestPlannerMatchesScheduleLPThroughput(t *testing.T) {
	net, reqs := plannerScenario(t)
	p := DefaultParams(SurfNet)
	batch, err := ScheduleLP(net, reqs, p)
	if err != nil {
		t.Fatal(err)
	}
	if batch.AcceptedCodes() == 0 {
		t.Fatal("precondition: ScheduleLP should admit codes")
	}
	pl := NewPlanner(p)
	for round := 0; round < 3; round++ {
		sched, err := pl.Plan(net, reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(sched.Requests, batch.Requests) {
			t.Fatalf("round %d: planner schedule differs from ScheduleLP's (%d vs %d codes)",
				round, sched.AcceptedCodes(), batch.AcceptedCodes())
		}
	}
}

// TestPlannerSurvivesTopologyReshape pins that a planner serves a reshaped
// network (fiber removed) right after the original: nothing from the earlier
// plan carries over, so it admits what ScheduleLP admits.
func TestPlannerSurvivesTopologyReshape(t *testing.T) {
	net, reqs := plannerScenario(t)
	p := DefaultParams(SurfNet)
	pl := NewPlanner(p)
	first, err := pl.Plan(net, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if first.AcceptedCodes() == 0 {
		t.Fatal("precondition: planner should admit codes")
	}
	// Rebuild the network without its last fiber: every LP shape parameter
	// (stride, rows) shifts.
	var nodes []network.Node
	for i := 0; i < net.NumNodes(); i++ {
		nodes = append(nodes, net.Node(i))
	}
	var fibers []network.Fiber
	for i := 0; i < net.NumFibers()-1; i++ {
		fibers = append(fibers, net.Fiber(i))
	}
	smaller, err := network.New(nodes, fibers)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pl.Plan(smaller, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ScheduleLP(smaller, reqs, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.AcceptedCodes(); got != want.AcceptedCodes() {
		t.Fatalf("post-reshape planner accepted %d codes, ScheduleLP %d", got, want.AcceptedCodes())
	}
}

// TestPlannerPurificationFallsBackToGreedy pins that designs without an IP
// formulation keep working through the planner.
func TestPlannerPurificationFallsBackToGreedy(t *testing.T) {
	net, reqs := plannerScenario(t)
	p := DefaultParams(Purification2)
	pl := NewPlanner(p)
	sched, err := pl.Plan(net, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Greedy(net, reqs, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.AcceptedCodes() != want.AcceptedCodes() {
		t.Fatalf("planner purification accepted %d, greedy %d",
			sched.AcceptedCodes(), want.AcceptedCodes())
	}
}
