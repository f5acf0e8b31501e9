// Package lp provides a self-contained linear-programming solver: a two-phase
// primal simplex with Bland anti-cycling on a dense tableau, eliminating
// sparsely. The tableau stores the structural, slack/surplus and RHS columns
// only: phase 1's artificial variables are never entered and their entries
// are never read, so they exist as basis indices alone.
//
// The routing protocol of §V formulates scheduling as an integer program and
// evaluates "a relaxed Linear Programming version with rounding"; this solver
// is the substrate for that relaxation. Problems are stated over non-negative
// variables with sparse <=, =, >= constraints and a linear objective.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LessEq Sense = 1 + iota
	Equal
	GreaterEq
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LessEq:
		return "<="
	case Equal:
		return "="
	case GreaterEq:
		return ">="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is a sparse linear constraint sum(Coeff_i * x_i) Sense RHS.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a linear program over NumVars non-negative variables.
type Problem struct {
	numVars     int
	objective   []float64
	maximize    bool
	constraints []Constraint
}

// NewMaximize returns a maximization problem over n non-negative variables
// with zero objective coefficients.
func NewMaximize(n int) *Problem {
	return &Problem{numVars: n, objective: make([]float64, n), maximize: true}
}

// NewMinimize returns a minimization problem over n non-negative variables.
func NewMinimize(n int) *Problem {
	return &Problem{numVars: n, objective: make([]float64, n)}
}

// NumVars reports the variable count.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints reports the constraint count.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// Constraint returns the i-th constraint added. Its Terms share the
// problem's storage and must not be modified.
func (p *Problem) Constraint(i int) Constraint { return p.constraints[i] }

// SetObjective sets the objective coefficient of variable v.
func (p *Problem) SetObjective(v int, c float64) {
	p.objective[v] = c
}

// AddConstraint appends a constraint; it returns an error when a term
// references an unknown variable or a coefficient is not finite.
func (p *Problem) AddConstraint(c Constraint) error {
	for _, t := range c.Terms {
		if t.Var < 0 || t.Var >= p.numVars {
			return fmt.Errorf("lp: constraint references variable %d outside [0,%d)", t.Var, p.numVars)
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			return fmt.Errorf("lp: non-finite coefficient %v on variable %d", t.Coeff, t.Var)
		}
	}
	if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
		return fmt.Errorf("lp: non-finite RHS %v", c.RHS)
	}
	switch c.Sense {
	case LessEq, Equal, GreaterEq:
	default:
		return fmt.Errorf("lp: invalid sense %v", c.Sense)
	}
	p.constraints = append(p.constraints, c)
	return nil
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = 1 + iota
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Stats counts the work a solve performed; the routing layer exports them
// as scheduler telemetry and routesolve prints them.
type Stats struct {
	// Pivots is the total number of Gauss-Jordan pivots across both
	// phases (including basis-repair pivots between phases).
	Pivots int
	// Phase1Pivots is the pivot count attributable to phase 1.
	Phase1Pivots int
	// Iterations is the number of simplex iterations (entering-column
	// selections), which exceeds Pivots only on the final optimality
	// check of each phase.
	Iterations int
	// DegeneratePivots counts pivots with a (near-)zero ratio step.
	DegeneratePivots int
	// Refreshes counts exact reduced-cost recomputations.
	Refreshes int
	// WarmStarted reports that SolveFrom installed the supplied basis and
	// skipped phase 1; false on cold solves and on warm-start fallbacks.
	WarmStarted bool
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Stats reports solver effort; populated on every outcome, including
	// Infeasible and Unbounded.
	Stats Stats
	// Basis is the final simplex basis on Optimal outcomes: one variable
	// index per constraint row. Structural variables come first, then one
	// slack/surplus per inequality row, then one artificial per row that is
	// = or >= once its RHS is made non-negative. An artificial index, left
	// on a redundant row, names no stored tableau column. Feed it to
	// SolveFrom on a similarly-shaped problem to warm-start the next solve.
	Basis []int
}

// Solver errors.
var (
	// ErrIterationLimit is returned when simplex exceeds its pivot budget.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
	// ErrInaccurate is returned when the optimum the simplex reached
	// misses a constraint or a bound by more than the feasibility
	// tolerance: round-off gathered over a long pivot sequence, reported
	// instead of handed back as an answer.
	ErrInaccurate = errors.New("lp: optimum violates a constraint")
)

// Simplex tolerances. The numeric thresholds form one documented
// scheme instead of ad-hoc magic numbers at each comparison site:
//
//   - pivotEps classifies tableau entries and ratio-test steps as numerically
//     zero. It bounds accumulated elimination roundoff, which is independent
//     of problem magnitude, so it is absolute.
//   - enterEps is the reduced-cost threshold for entering columns — two
//     decades above pivotEps so elimination noise in the objective row can
//     never be mistaken for an improving direction.
//   - feasRelTol is the phase-1 feasibility test, *relative* to the problem's
//     right-hand-side magnitude: phase 1 declares infeasibility when the
//     residual artificial mass exceeds feasRelTol * max(1, max|RHS|).
//     An absolute cutoff here disagrees with the other two scales on badly
//     scaled instances — a constraint system with RHS values around 1e-7
//     can be genuinely infeasible by several times its own magnitude while
//     the residual stays under any fixed cutoff (see
//     TestPhase1FeasibilityScale). Every Optimal answer is checked against
//     the original rows at the same relative scale.
//   - stallRelTol marks a pivot as stalling when its objective gain falls
//     below stallRelTol * max(1, |objective|). Degenerate pivots stall, and
//     so do tiny steps just above pivotEps; blandTrigger consecutive stalls
//     switch entering-column selection to Bland's rule.
const (
	pivotEps     = 1e-9
	enterEps     = 1e-7
	feasRelTol   = 1e-7
	stallRelTol  = 1e-9
	blandTrigger = 1500 // stalling pivots before switching to Bland's rule
	refreshEvery = 256  // pivots between exact reduced-cost recomputations
)

// Solve runs two-phase primal simplex. An Infeasible or Unbounded status is
// reported in the Solution, not as an error; errors indicate solver failure.
func (p *Problem) Solve() (Solution, error) { return p.solve(sparse{}) }

// solve is Solve on the given elimination kernel.
func (p *Problem) solve(k kernel) (Solution, error) {
	s := p.tableau(k)
	// Phase 1: minimize the sum of artificial variables.
	if s.nArt > 0 {
		obj := make([]float64, s.artStart+s.nArt)
		for j := s.artStart; j < len(obj); j++ {
			obj[j] = -1 // maximize -(sum of artificials)
		}
		val, err := s.optimize(obj, s.artStart)
		if err != nil {
			return Solution{}, fmt.Errorf("phase 1: %w", err)
		}
		if val < -feasRelTol*s.feasScale {
			s.stats.Phase1Pivots = s.stats.Pivots
			return Solution{Status: Infeasible, Stats: s.stats}, nil
		}
		// Drive any artificial still in the basis out (degenerate rows)
		// or drop the row if it is all zeros.
		for i, ri := range s.t {
			if s.basis[i] < s.artStart {
				continue
			}
			pivoted := false
			for j := 0; j < s.artStart; j++ {
				if math.Abs(ri[j]) > pivotEps {
					s.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; zero it so it never constrains.
				clear(ri)
			}
		}
	}
	s.stats.Phase1Pivots = s.stats.Pivots
	return p.phase2(s)
}

// SolveFrom runs simplex warm-started from a previous Optimal solution's
// Basis: the basis is installed by Gauss-Jordan pivots and, when the
// resulting vertex is primal-feasible, phase 1 is skipped entirely. Whenever
// the basis cannot be installed (shape mismatch, singular or artificial
// columns) or the vertex is infeasible for the new right-hand side, it falls
// back to a cold Solve, so SolveFrom never sacrifices correctness for speed.
// A nil basis is exactly Solve. Only the surfbench replay calls it, timing
// it as lp.solve_warm_ms; the routing planner solves cold.
func (p *Problem) SolveFrom(basis []int) (Solution, error) {
	if len(basis) != len(p.constraints) || len(basis) == 0 {
		return p.Solve()
	}
	s := p.tableau(sparse{})
	if !s.install(basis) {
		return p.Solve()
	}
	// The installed vertex must be primal-feasible for the new RHS;
	// tolerate (and clamp) elimination roundoff at the feasibility scale.
	for _, ri := range s.t {
		rhs := ri[s.artStart]
		if rhs < -feasRelTol*s.feasScale {
			return p.Solve()
		}
		if rhs < 0 {
			ri[s.artStart] = 0
		}
	}
	s.stats.WarmStarted = true
	s.stats.Phase1Pivots = s.stats.Pivots
	return p.phase2(s)
}

// install pivots the canonical tableau onto the given basis, assigning each
// basis column to the unused row with the largest pivot magnitude (partial
// pivoting). It reports false — leaving the caller to fall back to a cold
// solve — when a column is out of range, artificial, duplicated, or the
// basis matrix is numerically singular.
func (s *simplex) install(basis []int) bool {
	used := make([]bool, len(s.t))
	for _, b := range basis {
		if b < 0 || b >= s.artStart {
			return false
		}
		row, best := -1, pivotEps
		for i, ri := range s.t {
			if used[i] {
				continue
			}
			if a := math.Abs(ri[b]); a > best {
				best, row = a, i
			}
		}
		if row < 0 {
			return false
		}
		s.pivot(row, b)
		used[row] = true
	}
	return true
}

// tableau builds the canonical simplex tableau: slack/surplus columns
// appended after the structural variables, rows normalized to non-negative
// RHS, slacks/artificials forming the starting basis. Artificial variables get
// basis indices from artStart on but no columns. All rows share one backing
// slice.
func (p *Problem) tableau(k kernel) *simplex {
	m, n := len(p.constraints), p.numVars
	// normalized reports a row's sense once its RHS is made non-negative.
	normalized := func(c Constraint) Sense {
		if c.RHS >= 0 {
			return c.Sense
		}
		switch c.Sense {
		case LessEq:
			return GreaterEq
		case GreaterEq:
			return LessEq
		}
		return c.Sense
	}
	// Count slack and artificial columns, and record the feasibility scale.
	nSlack, nArt := 0, 0
	feasScale := 1.0
	for _, c := range p.constraints {
		feasScale = max(feasScale, math.Abs(c.RHS))
		switch normalized(c) {
		case LessEq:
			nSlack++
		case GreaterEq:
			nSlack++
			nArt++
		case Equal:
			nArt++
		}
	}
	// Column layout: [structural | slack/surplus | RHS].
	rhs := n + nSlack
	w := rhs + 1
	back := make([]float64, m*w)
	s := &simplex{
		t:         make([][]float64, m),
		basis:     make([]int, m),
		artStart:  rhs,
		nArt:      nArt,
		feasScale: feasScale,
		z:         make([]float64, w),
		kern:      k,
	}
	slackCol, artVar := n, rhs
	for i, c := range p.constraints {
		row := back[i*w : (i+1)*w : (i+1)*w]
		s.t[i] = row
		for _, tm := range c.Terms {
			row[tm.Var] += tm.Coeff
		}
		row[rhs] = c.RHS
		if c.RHS < 0 {
			for j := range row[:n] {
				row[j] = -row[j]
			}
			row[rhs] = -c.RHS
		}
		switch normalized(c) {
		case LessEq:
			row[slackCol] = 1
			s.basis[i] = slackCol
			slackCol++
		case GreaterEq:
			row[slackCol] = -1
			slackCol++
			s.basis[i] = artVar
			artVar++
		case Equal:
			s.basis[i] = artVar
			artVar++
		}
	}
	return s
}

// phase2 maximizes the real objective over structural columns only from the
// current (feasible) basis, then extracts the solution. Artificials are
// frozen at zero by restricting entering columns below artStart.
func (p *Problem) phase2(s *simplex) (Solution, error) {
	n := p.numVars
	obj := make([]float64, n)
	for j := 0; j < n; j++ {
		if p.maximize {
			obj[j] = p.objective[j]
		} else {
			obj[j] = -p.objective[j]
		}
	}
	val, err := s.optimize(obj, s.artStart)
	if err != nil {
		if errors.Is(err, errUnbounded) {
			return Solution{Status: Unbounded, Stats: s.stats}, nil
		}
		return Solution{}, fmt.Errorf("phase 2: %w", err)
	}
	x := make([]float64, n)
	for i, b := range s.basis {
		if b < n {
			x[b] = s.t[i][s.artStart]
		}
	}
	if err := p.verify(x, s.feasScale); err != nil {
		return Solution{}, fmt.Errorf("phase 2: %w", err)
	}
	if !p.maximize {
		val = -val
	}
	return Solution{
		Status: Optimal, X: x, Objective: val, Stats: s.stats,
		Basis: append([]int(nil), s.basis...),
	}, nil
}

// verify checks x against every original row and against x >= 0, in
// O(nnz). A row may miss its right-hand side by feasRelTol times the larger
// of feasScale and the row's own magnitude, sum |a_ij x_j|; a variable may
// fall below zero by feasRelTol * feasScale.
func (p *Problem) verify(x []float64, feasScale float64) error {
	for j, v := range x {
		if v < -feasRelTol*feasScale {
			return fmt.Errorf("%w: x[%d] = %.3g", ErrInaccurate, j, v)
		}
	}
	for i, c := range p.constraints {
		lhs, mag := 0.0, 0.0
		for _, t := range c.Terms {
			v := t.Coeff * x[t.Var]
			lhs += v
			mag += math.Abs(v)
		}
		var off float64
		switch c.Sense {
		case LessEq:
			off = lhs - c.RHS
		case GreaterEq:
			off = c.RHS - lhs
		case Equal:
			off = math.Abs(lhs - c.RHS)
		}
		if tol := feasRelTol * max(feasScale, mag); off > tol {
			return fmt.Errorf("%w: row %d off by %.3g (tolerance %.3g)", ErrInaccurate, i, off, tol)
		}
	}
	return nil
}

var errUnbounded = errors.New("lp: unbounded")

// simplex is the shared tableau state across the two phases.
type simplex struct {
	// t holds one row per constraint, artStart+1 columns wide: the
	// structural and slack/surplus columns, then the RHS at column
	// artStart.
	t     [][]float64
	basis []int
	// artStart is the first artificial variable index, and nArt the number
	// of artificials; basis indices from artStart up name no stored column.
	// feasScale is max(1, max|RHS|), the scale of the feasibility
	// tolerances.
	artStart  int
	nArt      int
	feasScale float64
	// z is the reduced-cost row of the objective being optimized, with the
	// objective value at z[artStart]; pivots eliminate in it like in any
	// row.
	z []float64
	// nz and nzv list the nonzero columns of the last pivot row and their
	// values.
	nz    []int
	nzv   []float64
	kern  kernel
	stats Stats
}

// kernel is the elimination arithmetic optimize drives. Solve uses sparse;
// the dense reference it must match pivot for pivot lives in the tests.
type kernel interface {
	// pivot scales row so that column col is 1 and eliminates col from
	// every other row and from z.
	pivot(s *simplex, row, col int)
	// refresh recomputes z for obj over the current basis.
	refresh(s *simplex, obj []float64)
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func (s *simplex) pivot(row, col int) {
	s.kern.pivot(s, row, col)
	s.basis[row] = col
	s.stats.Pivots++
}

// sparse is the production kernel. Its pivot touches only the pivot row's
// nonzero columns and its refresh only the rows with a nonzero cost, so its
// work follows the routing LP's block sparsity rather than the tableau's
// width. It makes the same arithmetic as a dense sweep on every entry it
// touches, and an entry it skips would only have gained or lost the sign of
// a zero.
type sparse struct{}

func (sparse) pivot(s *simplex, row, col int) {
	pr := s.t[row]
	inv := 1 / pr[col]
	nz, nzv := s.nz[:0], s.nzv[:0]
	for j, v := range pr {
		if v == 0 {
			continue
		}
		if j == col {
			v = 1 // exact
		} else {
			v *= inv
		}
		pr[j] = v
		nz = append(nz, j)
		nzv = append(nzv, v)
	}
	s.nz, s.nzv = nz, nzv
	eliminate := func(ri []float64) {
		f := ri[col]
		if f == 0 {
			return
		}
		for q, j := range nz {
			ri[j] -= f * nzv[q]
		}
		ri[col] = 0 // exact
	}
	for i, ri := range s.t {
		if i != row {
			eliminate(ri)
		}
	}
	eliminate(s.z)
}

// refresh sums z row by row, so it reads the tableau in memory order, over
// the rows whose basic variable has a nonzero cost. Each z[j] still adds its
// terms in row order, starting from -obj[j], and the objective value from 0.
func (sparse) refresh(s *simplex, obj []float64) {
	z := s.z
	for j := range z[:s.artStart] {
		z[j] = -objAt(obj, j)
	}
	z[s.artStart] = 0
	for i, ri := range s.t {
		cb := objAt(obj, s.basis[i])
		if cb == 0 {
			continue
		}
		for j, v := range ri {
			z[j] += cb * v
		}
	}
}

// optimize maximizes obj over the current basis, entering only columns below
// colLimit. It returns the achieved objective value.
func (s *simplex) optimize(obj []float64, colLimit int) (float64, error) {
	m := len(s.t)
	rhs := s.artStart
	z := s.z
	// Reduced costs z_j - c_j are kept incrementally in z, which every
	// pivot eliminates like a tableau row, and recomputed exactly at
	// intervals.
	refresh := func() {
		s.stats.Refreshes++
		s.kern.refresh(s, obj)
	}
	refresh()
	stalled := 0
	// The cap counts the artificial variables, though they have no columns.
	maxIters := 30*(m+rhs+s.nArt) + 10000
	for iter := 0; iter < maxIters; iter++ {
		s.stats.Iterations++
		if iter > 0 && iter%refreshEvery == 0 {
			// Incremental updates drift; periodically recompute the
			// reduced costs exactly so tiny phantom negatives cannot
			// sustain degenerate cycling.
			refresh()
		}
		// Entering column.
		col := -1
		bland := stalled >= blandTrigger
		if !bland {
			best := -enterEps
			for j, zj := range z[:colLimit] {
				if zj < best {
					best = zj
					col = j
				}
			}
		} else {
			for j, zj := range z[:colLimit] { // Bland: smallest index
				if zj < -enterEps {
					col = j
					break
				}
			}
		}
		if col < 0 {
			return z[rhs], nil // optimal
		}
		// Ratio test. Rows whose ratios tie within pivotEps go to the
		// largest pivot element, which keeps the elimination stable where a
		// smallest-index rule would pivot on entries near pivotEps; Bland's
		// rule takes the smallest basis index instead.
		row := -1
		bestRatio, bestPivot := math.Inf(1), 0.0
		for i, ri := range s.t {
			a := ri[col]
			if a <= pivotEps {
				continue
			}
			ratio := ri[rhs] / a
			if ratio < bestRatio-pivotEps || ratio < bestRatio+pivotEps &&
				(bland && s.basis[i] < s.basis[row] || !bland && a > bestPivot) {
				row, bestRatio, bestPivot = i, ratio, a
			}
		}
		if row < 0 {
			return 0, errUnbounded
		}
		degenerate := bestRatio < pivotEps
		if degenerate {
			s.stats.DegeneratePivots++
		}
		if degenerate || -z[col]*bestRatio < stallRelTol*max(1, math.Abs(z[rhs])) {
			stalled++
		} else {
			stalled = 0
		}
		s.pivot(row, col)
	}
	return 0, ErrIterationLimit
}

// objAt treats obj as padded with zeros beyond its length.
func objAt(obj []float64, j int) float64 {
	if j < len(obj) {
		return obj[j]
	}
	return 0
}
