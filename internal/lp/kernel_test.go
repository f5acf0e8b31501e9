package lp

import (
	"fmt"
	"slices"
	"testing"

	"surfnet/internal/rng"
)

// dense is the reference elimination kernel: the full-width Gauss-Jordan
// sweep and the column-by-column reduced-cost sum the solver ran before it
// eliminated sparsely. The sparse kernel must make the same choices on every
// finite tableau.
type dense struct{}

func (dense) pivot(s *simplex, row, col int) {
	pr := s.t[row]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for i, ri := range s.t {
		if i == row {
			continue
		}
		f := ri[col]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0 // exact
	}
	if f := s.z[col]; f != 0 {
		for j := range s.z {
			s.z[j] -= f * pr[j]
		}
		s.z[col] = 0
	}
}

func (dense) refresh(s *simplex, obj []float64) {
	for j := 0; j <= s.artStart; j++ {
		var v float64
		if j < s.artStart {
			v = -objAt(obj, j)
		}
		for i, ri := range s.t {
			v += objAt(obj, s.basis[i]) * ri[j]
		}
		s.z[j] = v
	}
}

// traced records every (row, col) pivot its kernel makes.
type traced struct {
	kernel
	steps [][2]int
}

func (tr *traced) pivot(s *simplex, row, col int) {
	tr.steps = append(tr.steps, [2]int{row, col})
	tr.kernel.pivot(s, row, col)
}

// sameAsDense solves p with the sparse kernel and the dense reference and
// reports the first way they differ: the pivot sequence, the error, the
// status, Stats, the basis, the objective or X. X and the objective are
// compared with ==, so +0 and -0 count as equal. It returns the sparse
// kernel's answer.
func sameAsDense(p *Problem) (Solution, string, error) {
	sp, dn := &traced{kernel: sparse{}}, &traced{kernel: dense{}}
	got, gerr := p.solve(sp)
	want, werr := p.solve(dn)
	diff := func() string {
		if n := min(len(sp.steps), len(dn.steps)); !slices.Equal(sp.steps[:n], dn.steps[:n]) {
			for k := range n {
				if sp.steps[k] != dn.steps[k] {
					return fmt.Sprintf("pivot %d: sparse %v, dense %v", k, sp.steps[k], dn.steps[k])
				}
			}
		}
		if len(sp.steps) != len(dn.steps) {
			return fmt.Sprintf("sparse made %d pivots, dense %d", len(sp.steps), len(dn.steps))
		}
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Sprintf("error: sparse %v, dense %v", gerr, werr)
		}
		if got.Status != want.Status || got.Stats != want.Stats {
			return fmt.Sprintf("status/stats: sparse %v %+v, dense %v %+v", got.Status, got.Stats, want.Status, want.Stats)
		}
		if !slices.Equal(got.Basis, want.Basis) {
			return "bases differ"
		}
		if got.Objective != want.Objective || !slices.Equal(got.X, want.X) {
			return fmt.Sprintf("answers differ: objective %v vs %v", got.Objective, want.Objective)
		}
		return ""
	}()
	return got, diff, gerr
}

// randomLP draws a small LP with mixed senses, negative right-hand sides,
// duplicate terms, zero right-hand sides (degenerate vertices) and repeated
// rows (redundant equalities), over sparse coefficients.
func randomLP(src *rng.Source) *Problem {
	n, m := 1+src.IntN(12), 1+src.IntN(12)
	var p *Problem
	if src.IntN(2) == 0 {
		p = NewMaximize(n)
	} else {
		p = NewMinimize(n)
	}
	for v := 0; v < n; v++ {
		p.SetObjective(v, float64(src.IntN(7)-2)+src.Float64()*float64(src.IntN(2)))
	}
	var prev Constraint
	for r := 0; r < m; r++ {
		if r > 0 && src.IntN(6) == 0 {
			p.AddConstraint(prev)
			continue
		}
		var terms []Term
		for v := 0; v < n; v++ {
			if src.IntN(3) == 0 {
				continue
			}
			c := float64(src.IntN(9) - 3)
			if src.IntN(3) == 0 {
				c = src.Range(-2, 4)
			}
			terms = append(terms, Term{Var: v, Coeff: c})
			if src.IntN(8) == 0 {
				terms = append(terms, Term{Var: v, Coeff: src.Range(-1, 1)})
			}
		}
		rhs := float64(src.IntN(12) - 2)
		if src.IntN(4) == 0 {
			rhs = 0
		}
		prev = Constraint{Terms: terms, Sense: Sense(1 + src.IntN(3)), RHS: rhs}
		p.AddConstraint(prev)
	}
	// Box most instances so Optimal outcomes dominate.
	if src.IntN(4) != 0 {
		for v := 0; v < n; v++ {
			p.AddConstraint(Constraint{Terms: []Term{{v, 1}}, Sense: LessEq, RHS: float64(1 + src.IntN(9))})
		}
	}
	return p
}

// TestSparseKernelMatchesDense pins the sparse kernel's contract on random
// LPs: the same entering columns and leaving rows, the same Stats, bases and
// X as the dense reference, whatever the outcome.
func TestSparseKernelMatchesDense(t *testing.T) {
	src := rng.New(1818)
	outcomes := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		p := randomLP(src.SplitN("lp", trial))
		sol, diff, err := sameAsDense(p)
		if diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
		if err != nil {
			outcomes["error"]++
		} else {
			outcomes[sol.Status.String()]++
		}
	}
	for _, want := range []string{"optimal", "infeasible"} {
		if outcomes[want] == 0 {
			t.Errorf("no %s instance among the random LPs: %v", want, outcomes)
		}
	}
}
