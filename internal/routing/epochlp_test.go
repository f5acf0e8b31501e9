package routing

import (
	"math"
	"testing"

	"surfnet/internal/lp"
	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/topology"
)

// TestHardEpochLPsSolve pins two epochs of eight requests on surfnetd's
// default network whose LPs ran into the simplex iteration cap, each solve
// taking over a minute, while the ratio test broke ties by the smallest
// basis index: set-up 59 of a seed-1 epoch benchmark run and round 13 of a
// seed-903 one. Each must reach the optimum of its full demand, within a
// pivot budget, with the solver's answer check passing.
func TestHardEpochLPsSolve(t *testing.T) {
	net, err := topology.Generate(topology.DefaultParams(topology.Abundant, topology.GoodConnection), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 2000
	for _, tc := range []struct {
		name   string
		reqs   []network.Request
		demand float64
	}{
		{"seed-1 set-up 59", []network.Request{
			{Src: 11, Dst: 23, Messages: 2}, {Src: 14, Dst: 22, Messages: 1},
			{Src: 19, Dst: 18, Messages: 2}, {Src: 21, Dst: 22, Messages: 2},
			{Src: 14, Dst: 21, Messages: 2}, {Src: 23, Dst: 22, Messages: 2},
			{Src: 16, Dst: 17, Messages: 1}, {Src: 16, Dst: 20, Messages: 2},
		}, 14},
		{"seed-903 round 13", []network.Request{
			{Src: 20, Dst: 21, Messages: 1}, {Src: 19, Dst: 20, Messages: 1},
			{Src: 14, Dst: 11, Messages: 2}, {Src: 16, Dst: 11, Messages: 2},
			{Src: 14, Dst: 19, Messages: 1}, {Src: 19, Dst: 18, Messages: 2},
			{Src: 14, Dst: 19, Messages: 1}, {Src: 21, Dst: 17, Messages: 2},
		}, 12},
	} {
		form, err := BuildLP(net, tc.reqs, DefaultParams(SurfNet))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// A nil error means lp verified the answer against every row.
		res, err := form.SolveLP()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != lp.Optimal {
			t.Fatalf("%s: status %v", tc.name, res.Status)
		}
		if math.Abs(res.Objective-tc.demand) > 1e-6 {
			t.Errorf("%s: objective %v, want the full demand %v", tc.name, res.Objective, tc.demand)
		}
		if res.Stats.Pivots > budget {
			t.Errorf("%s: %d pivots, want at most %d", tc.name, res.Stats.Pivots, budget)
		}
		t.Logf("%s: optimum %v in %d pivots", tc.name, res.Objective, res.Stats.Pivots)
	}
}
