package lp

import (
	"math"
	"math/big"
	"testing"
)

// fuzzLP decodes a small boxed LP from data: at most 4 variables and 4 rows,
// integer coefficients in [-3, 3], right-hand sides in [-4, 8] and an upper
// bound in [0, 5] on every variable, so every instance is bounded. Missing
// bytes read as zero.
//
// Layout: byte 0 picks n (low 2 bits, plus one), the row count (next 3 bits,
// mod 5) and the direction (bit 5). Then n objective bytes, n bound bytes,
// and per row one sense/RHS byte followed by n coefficient bytes.
func fuzzLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	head := next()
	n, m := 1+head&3, (head>>2&7)%5
	var p *Problem
	if head>>5&1 == 1 {
		p = NewMinimize(n)
	} else {
		p = NewMaximize(n)
	}
	for j := 0; j < n; j++ {
		p.SetObjective(j, float64(next()%7-3))
	}
	bounds := make([]int, n)
	for j := range bounds {
		bounds[j] = next() % 6
	}
	for r := 0; r < m; r++ {
		b := next()
		c := Constraint{Sense: Sense(1 + b%3), RHS: float64(b/3%13 - 4)}
		for j := 0; j < n; j++ {
			if a := next()%7 - 3; a != 0 {
				c.Terms = append(c.Terms, Term{Var: j, Coeff: float64(a)})
			}
		}
		p.AddConstraint(c)
	}
	for j, u := range bounds {
		p.AddConstraint(Constraint{Terms: []Term{{j, 1}}, Sense: LessEq, RHS: float64(u)})
	}
	return p
}

// vertexOracle solves a boxed LP exactly by enumerating its vertices: every
// choice of n tight constraints among the rows, the bounds and x >= 0 whose
// system is nonsingular, kept when the point satisfies everything. A bounded
// nonempty feasible set has a vertex, so no vertex means Infeasible.
func vertexOracle(p *Problem) (Status, *big.Rat) {
	n := p.numVars
	// Each hyperplane is a.x = b for a constraint a.x (sense) b; x >= 0
	// contributes the n unit hyperplanes x_j = 0.
	type plane struct {
		a     []*big.Rat
		b     *big.Rat
		sense Sense
	}
	var planes []plane
	for _, c := range p.constraints {
		a := make([]*big.Rat, n)
		for j := range a {
			a[j] = new(big.Rat)
		}
		for _, t := range c.Terms {
			a[t.Var].Add(a[t.Var], new(big.Rat).SetFloat64(t.Coeff))
		}
		planes = append(planes, plane{a, new(big.Rat).SetFloat64(c.RHS), c.Sense})
	}
	for j := 0; j < n; j++ {
		a := make([]*big.Rat, n)
		for k := range a {
			a[k] = new(big.Rat)
		}
		a[j].SetInt64(1)
		planes = append(planes, plane{a, new(big.Rat), GreaterEq})
	}
	feasible := func(x []*big.Rat) bool {
		for _, pl := range planes {
			lhs := new(big.Rat)
			for j, aj := range pl.a {
				lhs.Add(lhs, new(big.Rat).Mul(aj, x[j]))
			}
			c := lhs.Cmp(pl.b)
			if pl.sense == LessEq && c > 0 || pl.sense == GreaterEq && c < 0 || pl.sense == Equal && c != 0 {
				return false
			}
		}
		return true
	}
	// solve returns the unique solution of the chosen planes held tight,
	// or nil when they are singular.
	solve := func(pick []int) []*big.Rat {
		m := make([][]*big.Rat, n)
		for r, k := range pick {
			m[r] = make([]*big.Rat, n+1)
			for j := 0; j < n; j++ {
				m[r][j] = new(big.Rat).Set(planes[k].a[j])
			}
			m[r][n] = new(big.Rat).Set(planes[k].b)
		}
		for c := 0; c < n; c++ {
			piv := -1
			for r := c; r < n; r++ {
				if m[r][c].Sign() != 0 {
					piv = r
					break
				}
			}
			if piv < 0 {
				return nil
			}
			m[c], m[piv] = m[piv], m[c]
			for r := 0; r < n; r++ {
				if r == c || m[r][c].Sign() == 0 {
					continue
				}
				f := new(big.Rat).Quo(m[r][c], m[c][c])
				for j := c; j <= n; j++ {
					m[r][j].Sub(m[r][j], new(big.Rat).Mul(f, m[c][j]))
				}
			}
		}
		x := make([]*big.Rat, n)
		for j := range x {
			x[j] = new(big.Rat).Quo(m[j][n], m[j][j])
		}
		return x
	}
	var best *big.Rat
	pick := make([]int, n)
	var choose func(start, depth int)
	choose = func(start, depth int) {
		if depth == n {
			x := solve(pick)
			if x == nil || !feasible(x) {
				return
			}
			obj := new(big.Rat)
			for j, xj := range x {
				obj.Add(obj, new(big.Rat).Mul(new(big.Rat).SetFloat64(p.objective[j]), xj))
			}
			if best == nil || p.maximize && obj.Cmp(best) > 0 || !p.maximize && obj.Cmp(best) < 0 {
				best = obj
			}
			return
		}
		for k := start; k < len(planes); k++ {
			pick[depth] = k
			choose(k+1, depth+1)
		}
	}
	choose(0, 0)
	if best == nil {
		return Infeasible, nil
	}
	return Optimal, best
}

// FuzzSolve checks the simplex against exact vertex enumeration on small
// boxed LPs: the same status, on Optimal an objective within 1e-6 relative
// and a feasible X, and the dense reference kernel making the same pivots to
// the same basis and X.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0x0b, 4, 5, 3, 3, 20, 4, 5, 38, 2, 4})
	f.Add([]byte{0x3f, 0, 6, 6, 2, 5, 5, 5, 5, 1, 4, 4, 4, 4, 2, 2, 3, 4, 5, 0, 1, 2, 3, 30, 6, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzLP(data)
		want, wantObj := vertexOracle(p)
		sol, diff, err := sameAsDense(p)
		if diff != "" {
			t.Fatalf("sparse kernel differs from the dense reference: %s", diff)
		}
		if err != nil {
			t.Fatalf("Solve: %v (oracle: %v)", err, want)
		}
		if sol.Status != want {
			t.Fatalf("status %v, oracle %v %v", sol.Status, want, wantObj)
		}
		if want != Optimal {
			return
		}
		exact, _ := wantObj.Float64()
		if math.Abs(sol.Objective-exact) > 1e-6*max(1, math.Abs(exact)) {
			t.Fatalf("objective %v, oracle %v", sol.Objective, wantObj)
		}
		feasCheck(t, p, sol.X)
	})
}
