package lp_test

import (
	"testing"

	"surfnet/internal/lp"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/topology"
)

// TestSparseKernelMatchesDenseOnRoutingLPs pins the kernel contract on the
// LPs the planner solves: epochs of eight requests on surfnetd's default
// network, for both designs with a formulation. The sparse kernel must make
// the dense reference's pivots and reach its basis, Stats and X.
func TestSparseKernelMatchesDenseOnRoutingLPs(t *testing.T) {
	net, err := topology.Generate(topology.DefaultParams(topology.Abundant, topology.GoodConnection), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(2024)
	for i, design := range []routing.Design{routing.SurfNet, routing.Raw, routing.SurfNet} {
		reqs, err := topology.GenRequests(net, 8, 3, src.SplitN("epoch", i))
		if err != nil {
			t.Fatal(err)
		}
		form, err := routing.BuildLP(net, reqs, routing.DefaultParams(design))
		if err != nil {
			t.Fatal(err)
		}
		sol, diff, err := lp.SameAsDense(form.Problem)
		if diff != "" {
			t.Fatalf("LP %d (%v): %s", i, design, diff)
		}
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("LP %d (%v): %v %v", i, design, sol.Status, err)
		}
		if sol.Stats.Pivots < 100 {
			t.Fatalf("LP %d (%v): %d pivots, want a solve that exercises the kernel", i, design, sol.Stats.Pivots)
		}
	}
}
