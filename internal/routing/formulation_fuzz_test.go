package routing

import (
	"math"
	"testing"

	"surfnet/internal/rng"
	"surfnet/internal/topology"
)

// FuzzBuildLP checks BuildLP against the full reference formulation
// (buildFullLP), which has a column for every arc and rows fixing the
// forbidden ones, and under Raw every Core column, at zero. The network is
// a topology.Generate draw of 6-24 nodes under any facility and fiber
// scenario, with 1-8 requests of 1-3 codes, under SurfNet or Raw. BuildLP
// must number Y_k, k's allowed a arcs, its allowed b arcs and its servers
// consecutively; give no forbidden arc a column, and Raw no Core column;
// emit no row without terms; and reach the reference's status and, on an
// optimum, its objective within 1e-9 of max(1, |objective|).
func FuzzBuildLP(f *testing.F) {
	for scenario := uint8(0); scenario < 6; scenario++ {
		f.Add(uint64(scenario), scenario, uint8(18), uint8(7), uint8(2), false)
		f.Add(uint64(100+scenario), scenario, uint8(18), uint8(7), uint8(2), true)
	}
	f.Add(uint64(7), uint8(5), uint8(0), uint8(3), uint8(0), false) // 6 nodes, 1 code
	f.Fuzz(func(t *testing.T, seed uint64, scenario, nodes, reqs, codes uint8, raw bool) {
		facilities := []topology.Facilities{topology.Abundant, topology.Sufficient, topology.Insufficient}
		fibers := []topology.FidelityRange{topology.GoodConnection, topology.PoorConnection}
		tp := topology.DefaultParams(facilities[scenario%3], fibers[scenario/3%2])
		tp.Nodes = 6 + int(nodes)%19
		src := rng.New(seed)
		net, err := topology.Generate(tp, src.Split("network"))
		if err != nil {
			t.Fatal(err)
		}
		requests, err := topology.GenRequests(net, 1+int(reqs)%8, 1+int(codes)%3, src.Split("requests"))
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams(SurfNet)
		if raw {
			p = DefaultParams(Raw)
		}
		form, err := BuildLP(net, requests, p)
		if err != nil {
			t.Fatal(err)
		}
		full, err := buildFullLP(net, requests, p)
		if err != nil {
			t.Fatal(err)
		}

		next := 0
		expect := func(what string, k, col int) {
			t.Helper()
			if col != next {
				t.Fatalf("request %d: %s at column %d, want %d", k, what, col, next)
			}
			next++
		}
		for k, r := range requests {
			c := form.cols[k]
			expect("Y", k, c.y)
			for _, fam := range []struct {
				name    string
				cols    []int
				carries bool
			}{{"a", c.a, !raw}, {"b", c.b, true}} {
				for arc, col := range fam.cols {
					if full.forbidden(r, arc/2, arc%2) || !fam.carries {
						if col >= 0 {
							t.Fatalf("request %d: %s arc %d has column %d, want none", k, fam.name, arc, col)
						}
						continue
					}
					expect(fam.name, k, col)
				}
			}
			for sp := range form.servers {
				expect("x", k, c.x+sp)
			}
		}
		if n := form.Problem.NumVars(); n != next {
			t.Fatalf("%d columns, want %d", n, next)
		}
		for i := 0; i < form.Problem.NumConstraints(); i++ {
			if len(form.Problem.Constraint(i).Terms) == 0 {
				t.Fatalf("row %d has no terms", i)
			}
		}

		got, err := form.Problem.Solve()
		if err != nil {
			t.Fatalf("pruned LP: %v", err)
		}
		want, err := full.form.Problem.Solve()
		if err != nil {
			t.Fatalf("full LP: %v", err)
		}
		if got.Status != want.Status {
			t.Fatalf("status %v, full LP %v", got.Status, want.Status)
		}
		if d := math.Abs(got.Objective - want.Objective); d > 1e-9*max(1, math.Abs(want.Objective)) {
			t.Fatalf("objective %v, full LP %v", got.Objective, want.Objective)
		}
	})
}
