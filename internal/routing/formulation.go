package routing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"surfnet/internal/lp"
	"surfnet/internal/network"
	"surfnet/internal/telemetry"
)

// Formulation is the LP relaxation of the routing integer program (Eq. 1-6)
// for the SurfNet or Raw design, together with the variable layout needed to
// interpret its solution.
//
// Request k's columns are contiguous, in this order:
//
//	Y_k
//	a_e^k  per arc e that Eq. 3 allows k   (none under Raw: no Core flow)
//	b_e^k  per arc e that Eq. 3 allows k
//	x_r^k  per server r
//
// An arc is a fiber in one direction. An arc that Eq. 3 forbids k
// (arcAllowed) gets no column, so that constraint holds by construction.
//
// Noise sums are normalized per code (divided by n for the Core constraint
// and by n+m for the whole-code constraint) so the thresholds Wc and W carry
// the same per-code units as the §V-A worked example and the Fig. 6(b.4)
// fidelity threshold 1/2^Wc.
type Formulation struct {
	Problem *lp.Problem
	net     *network.Network
	reqs    []network.Request
	params  Params
	servers []int
	cols    []reqCols
}

// reqCols is one request's column table.
type reqCols struct {
	// y is the column of Y_k, and x that of x_r^k for the first server;
	// the others follow in server order.
	y, x int
	// a and b map an arc, 2*fiber + dir with dir 0 = A->B, to the column of
	// a_e^k or b_e^k, or to -1 where the arc has none.
	a, b []int
}

// arcHead returns the head node of (fiber, dir), dir 0 = A->B.
func (f *Formulation) arcHead(fiber, dir int) int {
	fb := f.net.Fiber(fiber)
	if dir == 0 {
		return fb.B
	}
	return fb.A
}

// arcTail returns the tail node of (fiber, dir).
func (f *Formulation) arcTail(fiber, dir int) int {
	fb := f.net.Fiber(fiber)
	if dir == 0 {
		return fb.A
	}
	return fb.B
}

// arcAllowed reports whether request r may carry flow on arc (fiber, dir).
// Eq. 3 line 1, extended, forbids flow into the source, out of the
// destination, and into or out of any other user. The source and the
// destination are users themselves, so that reads: flow leaves a user only
// at the source and enters one only at the destination.
func (f *Formulation) arcAllowed(r network.Request, fiber, dir int) bool {
	head, tail := f.arcHead(fiber, dir), f.arcTail(fiber, dir)
	return (f.net.Node(head).Role != network.User || head == r.Dst) &&
		(f.net.Node(tail).Role != network.User || tail == r.Src)
}

// BuildLP assembles the LP relaxation for the SurfNet or Raw design.
// Purification designs are not expressible in the Eq. (1)-(6) program (they
// have no Core/Support split and no error correction); schedule those with
// Greedy directly.
func BuildLP(net *network.Network, reqs []network.Request, p Params) (*Formulation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Design != SurfNet && p.Design != Raw {
		return nil, fmt.Errorf("routing: design %v has no IP formulation; use Greedy", p.Design)
	}
	for i, r := range reqs {
		if err := r.Validate(net); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	f := &Formulation{
		net:     net,
		reqs:    reqs,
		params:  p,
		servers: net.NodesByRole(network.Server),
		cols:    make([]reqCols, len(reqs)),
	}
	next := 0
	// arcCols numbers r's allowed arcs from next on, if the family carries
	// flow at all.
	arcCols := func(r network.Request, carries bool) []int {
		cols := make([]int, 2*net.NumFibers())
		for arc := range cols {
			cols[arc] = -1
			if carries && f.arcAllowed(r, arc/2, arc%2) {
				cols[arc] = next
				next++
			}
		}
		return cols
	}
	for k, r := range reqs {
		c := &f.cols[k]
		c.y = next
		next++
		c.a = arcCols(r, f.coreQubits() > 0)
		c.b = arcCols(r, true)
		c.x = next
		next += len(f.servers)
	}
	f.Problem = lp.NewMaximize(next)

	// Objective (Eq. 1): maximize total scheduled codes.
	for k := range reqs {
		f.Problem.SetObjective(f.cols[k].y, 1)
	}
	if err := f.addPerRequestRows(); err != nil {
		return nil, err
	}
	if err := f.addNetworkRows(); err != nil {
		return nil, err
	}
	return f, nil
}

// coreQubits returns the Core size n used in flow couplings; the Raw design
// carries no Core flow.
func (f *Formulation) coreQubits() int {
	if f.params.Design == Raw {
		return 0
	}
	return f.params.CoreQubits
}

// supportQubits returns the Support flow multiplier: m for SurfNet, the
// whole code n+m for Raw.
func (f *Formulation) supportQubits() int {
	if f.params.Design == Raw {
		return f.params.TotalQubits()
	}
	return f.params.SupportQubits
}

func (f *Formulation) addPerRequestRows() error {
	net, p := f.net, f.params
	for k, r := range f.reqs {
		c := f.cols[k]
		// Eq. 2 bounds: Y_k <= i_k, x_r^k <= i_k.
		if err := f.add(lp.Constraint{
			Terms: []lp.Term{{Var: c.y, Coeff: 1}},
			Sense: lp.LessEq, RHS: float64(r.Messages),
		}); err != nil {
			return err
		}
		for sp := range f.servers {
			if err := f.add(lp.Constraint{
				Terms: []lp.Term{{Var: c.x + sp, Coeff: 1}},
				Sense: lp.LessEq, RHS: float64(r.Messages),
			}); err != nil {
				return err
			}
		}
		// Eq. 3 lines 2-3: source emits and destination absorbs n*Y_k
		// Core and m*Y_k Support qubits. Raw carries no Core flow.
		type flowSpec struct {
			cols []int
			mult int
		}
		specs := []flowSpec{{c.a, f.coreQubits()}, {c.b, f.supportQubits()}}
		for _, spec := range specs {
			if spec.mult == 0 {
				continue
			}
			into := f.flowTerms(spec.cols, r.Dst, true)
			into = append(into, lp.Term{Var: c.y, Coeff: -float64(spec.mult)})
			if err := f.add(lp.Constraint{Terms: into, Sense: lp.Equal, RHS: 0}); err != nil {
				return err
			}
			out := f.flowTerms(spec.cols, r.Src, false)
			out = append(out, lp.Term{Var: c.y, Coeff: -float64(spec.mult)})
			if err := f.add(lp.Constraint{Terms: out, Sense: lp.Equal, RHS: 0}); err != nil {
				return err
			}
			// Eq. 4 lines 2-3: conservation at every relay.
			for _, rel := range net.Relays() {
				terms := f.flowTerms(spec.cols, rel, true)
				for _, t := range f.flowTerms(spec.cols, rel, false) {
					terms = append(terms, lp.Term{Var: t.Var, Coeff: -1})
				}
				if err := f.add(lp.Constraint{Terms: terms, Sense: lp.Equal, RHS: 0}); err != nil {
					return err
				}
			}
		}
		// Eq. 4 line 1: at servers, arriving flow is whole re-assembled
		// codes: sum_in a = n * x_r and sum_in b = m * x_r.
		for sp, srv := range f.servers {
			if f.coreQubits() > 0 {
				terms := f.flowTerms(c.a, srv, true)
				terms = append(terms, lp.Term{Var: c.x + sp, Coeff: -float64(f.coreQubits())})
				if err := f.add(lp.Constraint{Terms: terms, Sense: lp.Equal, RHS: 0}); err != nil {
					return err
				}
			}
			terms := f.flowTerms(c.b, srv, true)
			terms = append(terms, lp.Term{Var: c.x + sp, Coeff: -float64(f.supportQubits())})
			if err := f.add(lp.Constraint{Terms: terms, Sense: lp.Equal, RHS: 0}); err != nil {
				return err
			}
		}
		// Eq. 6: noise constraints, per-code normalized.
		if p.Design == SurfNet {
			n := float64(p.CoreQubits)
			var core []lp.Term
			for arc, col := range c.a {
				if col >= 0 {
					core = append(core, lp.Term{Var: col, Coeff: net.Fiber(arc/2).Noise() / n})
				}
			}
			for sp := range f.servers {
				core = append(core, lp.Term{Var: c.x + sp, Coeff: -p.Omega})
			}
			lower := append([]lp.Term(nil), core...)
			if err := f.add(lp.Constraint{Terms: lower, Sense: lp.GreaterEq, RHS: 0}); err != nil {
				return err
			}
			upper := append([]lp.Term(nil), core...)
			upper = append(upper, lp.Term{Var: c.y, Coeff: -p.CoreThreshold})
			if err := f.add(lp.Constraint{Terms: upper, Sense: lp.LessEq, RHS: 0}); err != nil {
				return err
			}
		}
		total := float64(p.TotalQubits())
		var whole []lp.Term
		for arc := range c.b {
			mu := net.Fiber(arc / 2).Noise()
			if col := c.a[arc]; col >= 0 {
				whole = append(whole, lp.Term{Var: col, Coeff: 0.5 * mu / total})
			}
			if col := c.b[arc]; col >= 0 {
				whole = append(whole, lp.Term{Var: col, Coeff: mu / total})
			}
		}
		for sp := range f.servers {
			whole = append(whole, lp.Term{Var: c.x + sp, Coeff: -p.Omega})
		}
		whole = append(whole, lp.Term{Var: c.y, Coeff: -p.TotalThreshold})
		if err := f.add(lp.Constraint{Terms: whole, Sense: lp.LessEq, RHS: 0}); err != nil {
			return err
		}
	}
	return nil
}

func (f *Formulation) addNetworkRows() error {
	net, p := f.net, f.params
	// Eq. 5 line 1: relay storage capacity over all requests.
	for _, rel := range net.Relays() {
		capacity := float64(net.Node(rel).Capacity)
		if p.Design == Raw {
			capacity *= p.RawCapacityFactor
		}
		var terms []lp.Term
		for _, c := range f.cols {
			terms = append(terms, f.flowTerms(c.a, rel, true)...)
			terms = append(terms, f.flowTerms(c.b, rel, true)...)
		}
		if err := f.add(lp.Constraint{Terms: terms, Sense: lp.LessEq, RHS: capacity}); err != nil {
			return err
		}
	}
	// Eq. 5 line 2: entangled-pair budget per fiber (both directions).
	if p.Design == SurfNet {
		for fi := 0; fi < net.NumFibers(); fi++ {
			var terms []lp.Term
			for _, c := range f.cols {
				for dir := 0; dir < 2; dir++ {
					if col := c.a[2*fi+dir]; col >= 0 {
						terms = append(terms, lp.Term{Var: col, Coeff: 1})
					}
				}
			}
			if err := f.add(lp.Constraint{
				Terms: terms, Sense: lp.LessEq,
				RHS: float64(net.Fiber(fi).EntPairs),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// flowTerms returns unit terms over the arcs into (into=true) or out of node
// v that have a column in cols, one request's a or b table.
func (f *Formulation) flowTerms(cols []int, v int, into bool) []lp.Term {
	var terms []lp.Term
	for _, fi := range f.net.Incident(v) {
		for dir := 0; dir < 2; dir++ {
			head := f.arcHead(int(fi), dir)
			col := cols[2*int(fi)+dir]
			if col >= 0 && (into && head == v || !into && head != v) {
				terms = append(terms, lp.Term{Var: col, Coeff: 1})
			}
		}
	}
	return terms
}

// add appends c to the problem. A row left with no terms, every arc it
// would sum having no column, is not emitted: it reads 0 against a
// right-hand side of 0 or of a capacity or pair budget, which network.New
// keeps non-negative, so it holds for every x.
func (f *Formulation) add(c lp.Constraint) error {
	if len(c.Terms) == 0 {
		return nil
	}
	if err := f.Problem.AddConstraint(c); err != nil {
		return fmt.Errorf("routing: building LP: %w", err)
	}
	return nil
}

// LPResult is the fractional scheduling decision extracted from the LP.
type LPResult struct {
	Status lp.Status
	// Y holds the fractional Y_k per request.
	Y []float64
	// Objective is the LP optimum (an upper bound on integral throughput).
	Objective float64
	// Stats reports the simplex effort spent on this solve.
	Stats lp.Stats
	// Basis is the optimal simplex basis, which SolveLPFrom can start a
	// later solve of a similarly-shaped instance from.
	Basis []int
}

// SolveLP solves the relaxation and extracts the Y_k values.
func (f *Formulation) SolveLP() (LPResult, error) {
	return f.solve(func() (lp.Solution, error) { return f.Problem.Solve() })
}

// SolveLPFrom solves the relaxation warm-started from a previous solve's
// basis, falling back to a cold solve when the basis no longer applies (see
// lp.SolveFrom). The planner solves cold; SolveLPFrom stays while the
// surfbench replay times it as lp.solve_warm_ms.
func (f *Formulation) SolveLPFrom(basis []int) (LPResult, error) {
	return f.solve(func() (lp.Solution, error) { return f.Problem.SolveFrom(basis) })
}

func (f *Formulation) solve(run func() (lp.Solution, error)) (LPResult, error) {
	sol, err := run()
	if err != nil {
		return LPResult{}, err
	}
	res := LPResult{Status: sol.Status, Objective: sol.Objective, Stats: sol.Stats, Basis: sol.Basis}
	if sol.Status != lp.Optimal {
		return res, nil
	}
	res.Y = make([]float64, len(f.reqs))
	for k := range f.reqs {
		res.Y[k] = sol.X[f.cols[k].y]
	}
	return res, nil
}

// ScheduleLP is the paper's evaluated scheduler: solve the LP relaxation,
// round the fractional Y_k, and repair to an integral, execution-feasible
// schedule by admitting codes greedily in decreasing fractional-Y order.
// For purification designs (no IP formulation) it falls back to Greedy.
func ScheduleLP(net *network.Network, reqs []network.Request, p Params) (Schedule, error) {
	fallback := func(reason string) (Schedule, error) {
		p.Metrics.Counter("routing.greedy_fallbacks").Inc()
		telemetry.Emit(p.Tracer, telemetry.Ev("routing.greedy_fallback",
			"reason", reason, "requests", len(reqs)))
		return Greedy(net, reqs, p, nil, nil)
	}
	if p.Design != SurfNet && p.Design != Raw {
		return fallback("design-without-formulation")
	}
	if len(p.AdaptiveDistances) > 0 {
		// The Eq. (1)-(6) program fixes one code size; QoS-adaptive
		// sizing is a per-code decision, handled by the greedy stage.
		return fallback("adaptive-code-sizing")
	}
	form, err := BuildLP(net, reqs, p)
	if err != nil {
		return Schedule{}, err
	}
	res, err := form.SolveLP()
	if err != nil {
		// Solver failures (e.g. the iteration budget on a heavily
		// degenerate instance) degrade to greedy admission rather than
		// aborting the round: the online network must always schedule.
		p.Metrics.Counter("routing.lp_errors").Inc()
		if errors.Is(err, lp.ErrIterationLimit) {
			p.Metrics.Counter("routing.lp_iteration_limits").Inc()
		}
		return fallback(solverErrorReason(err))
	}
	emitLPSolved(p, form, res)
	if res.Status != lp.Optimal {
		// Infeasible relaxations only arise from zero-capacity corner
		// cases; fall back to greedy admission, which degrades to an
		// empty schedule gracefully.
		return fallback("lp-" + res.Status.String())
	}
	return roundAndRepair(net, reqs, p, res)
}

// solverErrorReason names the greedy fallback a solver error causes, after
// the "lp-" + status names of the non-optimal outcomes.
func solverErrorReason(err error) string {
	switch {
	case errors.Is(err, lp.ErrIterationLimit):
		return "lp-iteration-limit"
	case errors.Is(err, lp.ErrInaccurate):
		return "lp-inaccurate"
	}
	return "solver-error"
}

// emitLPSolved records solver-effort telemetry for one relaxation solve.
func emitLPSolved(p Params, form *Formulation, res LPResult) {
	p.Metrics.Counter("routing.lp_solves").Inc()
	p.Metrics.Counter("routing.lp_pivots").Add(int64(res.Stats.Pivots))
	p.Metrics.Counter("routing.lp_iterations").Add(int64(res.Stats.Iterations))
	p.Metrics.Counter("routing.lp_degenerate_pivots").Add(int64(res.Stats.DegeneratePivots))
	telemetry.Emit(p.Tracer, telemetry.Ev("routing.lp_solved",
		"status", res.Status.String(), "objective", res.Objective,
		"pivots", res.Stats.Pivots, "iterations", res.Stats.Iterations,
		"degenerate", res.Stats.DegeneratePivots,
		"vars", form.Problem.NumVars(), "constraints", form.Problem.NumConstraints()))
}

// roundAndRepair turns an optimal relaxation into an integral,
// execution-feasible schedule: round each Y_k to the nearest integer (capped
// at the request's demand) and admit greedily in decreasing fractional-Y
// order. It is the rounding step of ScheduleLP, which the resident Planner
// runs too.
func roundAndRepair(net *network.Network, reqs []network.Request, p Params, res LPResult) (Schedule, error) {
	targets := make([]int, len(reqs))
	order := make([]int, len(reqs))
	roundedUp, roundedDown := 0, 0
	for k := range reqs {
		targets[k] = int(math.Floor(res.Y[k] + 0.5))
		if targets[k] > reqs[k].Messages {
			targets[k] = reqs[k].Messages
		}
		if float64(targets[k]) > res.Y[k] {
			roundedUp++
		} else if float64(targets[k]) < res.Y[k] {
			roundedDown++
		}
		telemetry.Emit(p.Tracer, telemetry.Ev("routing.rounding",
			"request", k, "y", res.Y[k], "target", targets[k]))
		order[k] = k
	}
	p.Metrics.Counter("routing.rounded_up").Add(int64(roundedUp))
	p.Metrics.Counter("routing.rounded_down").Add(int64(roundedDown))
	sort.SliceStable(order, func(i, j int) bool {
		return res.Y[order[i]] > res.Y[order[j]]
	})
	return Greedy(net, reqs, p, targets, order)
}
