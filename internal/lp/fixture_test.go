package lp

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// readProblem parses the text form of an LP in testdata: a 'maximize N' or
// 'minimize N' line, then 'obj VAR COEFF' per nonzero objective coefficient
// and 'row SENSE RHS VAR:COEFF ...' per constraint; '#' starts a comment.
func readProblem(path string) (*Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var p *Problem
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		bad := func(err error) error { return fmt.Errorf("%s:%d: %w", path, line, err) }
		switch fields[0] {
		case "maximize", "minimize":
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, bad(err)
			}
			p = NewMinimize(n)
			p.maximize = fields[0] == "maximize"
		case "obj":
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, bad(err)
			}
			c, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, bad(err)
			}
			p.SetObjective(v, c)
		case "row":
			c := Constraint{Sense: map[string]Sense{"<=": LessEq, "=": Equal, ">=": GreaterEq}[fields[1]]}
			if c.RHS, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, bad(err)
			}
			for _, tm := range fields[3:] {
				v, coeff, _ := strings.Cut(tm, ":")
				var t Term
				if t.Var, err = strconv.Atoi(v); err != nil {
					return nil, bad(err)
				}
				if t.Coeff, err = strconv.ParseFloat(coeff, 64); err != nil {
					return nil, bad(err)
				}
				c.Terms = append(c.Terms, t)
			}
			if err := p.AddConstraint(c); err != nil {
				return nil, bad(err)
			}
		default:
			return nil, bad(fmt.Errorf("unknown record %q", fields[0]))
		}
	}
	return p, sc.Err()
}

// TestViolatedOptimumFixture pins the routing LP on which breaking
// ratio-test ties by the smallest basis index returned an "optimum" of
// 15.13 that violated a row by 4.14. It must solve to its feasible optimum
// of 15, well inside a pivot budget, with the answer check passing. The
// exact Stats and objective pin the pivot path: a change to the tableau's
// storage that is meant to leave the arithmetic alone must reproduce them.
func TestViolatedOptimumFixture(t *testing.T) {
	p, err := readProblem("testdata/violated_optimum.lp")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars() != 1104 || p.NumConstraints() != 309 {
		t.Fatalf("fixture has %d rows over %d variables, want 309 over 1104", p.NumConstraints(), p.NumVars())
	}
	sol := solveOK(t, p)
	feasCheck(t, p, sol.X)
	if math.Abs(sol.Objective-15) > 1e-6 {
		t.Fatalf("objective = %v, want 15", sol.Objective)
	}
	const budget = 2000
	if sol.Stats.Pivots > budget {
		t.Fatalf("%d pivots, want at most %d", sol.Stats.Pivots, budget)
	}
	want := Stats{Pivots: 542, Phase1Pivots: 224, Iterations: 497, DegeneratePivots: 422, Refreshes: 3}
	if sol.Stats != want || sol.Objective != 14.999999999999995 {
		t.Fatalf("stats %+v, objective %v; want %+v, 14.999999999999995", sol.Stats, sol.Objective, want)
	}
	if _, diff, _ := sameAsDense(p); diff != "" {
		t.Fatalf("sparse kernel differs from the dense reference: %s", diff)
	}
}

// TestTableauStoresNoArtificialColumns pins the tableau's width on the
// fixture: its 1104 structural and 99 slack/surplus columns plus the RHS,
// and none for its 216 artificial variables, which keep basis indices only.
func TestTableauStoresNoArtificialColumns(t *testing.T) {
	p, err := readProblem("testdata/violated_optimum.lp")
	if err != nil {
		t.Fatal(err)
	}
	s := p.tableau(sparse{})
	if s.artStart != 1104+99 || s.nArt != 216 {
		t.Fatalf("artStart %d, %d artificials; want 1203, 216", s.artStart, s.nArt)
	}
	if got := len(s.t[0]); got != 1204 || len(s.z) != 1204 {
		t.Fatalf("rows store %d columns and z %d, want 1204 each", got, len(s.z))
	}
	artificial := 0
	for _, b := range s.basis {
		if b >= s.artStart {
			artificial++
		}
	}
	if artificial != 216 {
		t.Fatalf("%d rows start on an artificial, want 216", artificial)
	}
}

// TestVerifyRejectsViolatedOptimum pins the answer check itself: an X that
// misses a row or goes negative beyond the tolerance is reported as
// ErrInaccurate, and one within round-off of the rows is accepted.
func TestVerifyRejectsViolatedOptimum(t *testing.T) {
	p := NewMaximize(2)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: LessEq, RHS: 4})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, -1}}, Sense: Equal, RHS: 0})
	for _, tc := range []struct {
		x  []float64
		ok bool
	}{
		{[]float64{2, 2}, true},
		{[]float64{2, 2 + 1e-12}, true},
		{[]float64{3, 3}, false},     // row 0 over by 2
		{[]float64{1, 2}, false},     // row 1 off by 1
		{[]float64{-1e-3, 0}, false}, // negative beyond tolerance
	} {
		err := p.verify(tc.x, 4)
		if got := err == nil; got != tc.ok {
			t.Errorf("verify(%v) = %v, want ok=%v", tc.x, err, tc.ok)
		}
		if err != nil && !errors.Is(err, ErrInaccurate) {
			t.Errorf("verify(%v) = %v, want ErrInaccurate", tc.x, err)
		}
	}
}
