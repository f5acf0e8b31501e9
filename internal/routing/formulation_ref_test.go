package routing

import (
	"fmt"

	"surfnet/internal/lp"
	"surfnet/internal/network"
)

// fullLP is the reference formulation FuzzBuildLP checks BuildLP against: the
// Eq. (1)-(6) program with a column for every arc of every request, an
// equality row per request that fixes its forbidden arcs at zero, and under
// Raw a row that fixes every Core (a) column at zero.
//
// Variables per request k (stride = 1 + 4F + S, F fibers, S servers):
//
//	Y_k                   at base
//	a_e^k  per arc e      at base + 1 + arc        (2F arcs: fiber x direction)
//	b_e^k  per arc e      at base + 1 + 2F + arc
//	x_r^k  per server r   at base + 1 + 4F + serverPos
type fullLP struct {
	form   Formulation
	stride int
}

func (f *fullLP) arcCount() int { return 2 * f.form.net.NumFibers() }

func (f *fullLP) yVar(k int) int { return k * f.stride }

func (f *fullLP) aVar(k, fiber, dir int) int { return k*f.stride + 1 + 2*fiber + dir }

func (f *fullLP) bVar(k, fiber, dir int) int {
	return k*f.stride + 1 + f.arcCount() + 2*fiber + dir
}

func (f *fullLP) xVar(k, serverPos int) int { return k*f.stride + 1 + 2*f.arcCount() + serverPos }

// arcHead returns the head node of (fiber, dir), dir 0 = A->B.
func (f *fullLP) arcHead(fiber, dir int) int {
	fb := f.form.net.Fiber(fiber)
	if dir == 0 {
		return fb.B
	}
	return fb.A
}

// arcTail returns the tail node of (fiber, dir).
func (f *fullLP) arcTail(fiber, dir int) int {
	fb := f.form.net.Fiber(fiber)
	if dir == 0 {
		return fb.A
	}
	return fb.B
}

// forbidden reports whether Eq. 3 line 1, extended, fixes request r's flow
// on arc (fiber, dir) at zero: an arc into the source, out of the
// destination, or into or out of a non-terminal user.
func (f *fullLP) forbidden(r network.Request, fiber, dir int) bool {
	net := f.form.net
	head, tail := f.arcHead(fiber, dir), f.arcTail(fiber, dir)
	headUser := net.Node(head).Role == network.User && head != r.Dst
	tailUser := net.Node(tail).Role == network.User && tail != r.Src
	return head == r.Src || tail == r.Dst || headUser || tailUser
}

// buildFullLP assembles the reference program.
func buildFullLP(net *network.Network, reqs []network.Request, p Params) (*fullLP, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Design != SurfNet && p.Design != Raw {
		return nil, fmt.Errorf("routing: design %v has no IP formulation; use Greedy", p.Design)
	}
	f := &fullLP{form: Formulation{
		net: net, reqs: reqs, params: p,
		servers: net.NodesByRole(network.Server),
	}}
	f.stride = 1 + 4*net.NumFibers() + len(f.form.servers)
	f.form.Problem = lp.NewMaximize(f.stride * len(reqs))
	for k := range reqs {
		f.form.Problem.SetObjective(f.yVar(k), 1)
	}
	if err := f.addPerRequestRows(); err != nil {
		return nil, err
	}
	if err := f.addNetworkRows(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fullLP) add(c lp.Constraint) error { return f.form.Problem.AddConstraint(c) }

func (f *fullLP) addPerRequestRows() error {
	net, p := f.form.net, f.form.params
	for k, r := range f.form.reqs {
		// Eq. 2 bounds: Y_k <= i_k, x_r^k <= i_k.
		if err := f.add(lp.Constraint{
			Terms: []lp.Term{{Var: f.yVar(k), Coeff: 1}},
			Sense: lp.LessEq, RHS: float64(r.Messages),
		}); err != nil {
			return err
		}
		for sp := range f.form.servers {
			if err := f.add(lp.Constraint{
				Terms: []lp.Term{{Var: f.xVar(k, sp), Coeff: 1}},
				Sense: lp.LessEq, RHS: float64(r.Messages),
			}); err != nil {
				return err
			}
		}
		// Eq. 3 line 1, extended: no flow out of the destination, into
		// the source, or through any non-terminal user.
		var forbidden []lp.Term
		for fi := 0; fi < net.NumFibers(); fi++ {
			for dir := 0; dir < 2; dir++ {
				if f.forbidden(r, fi, dir) {
					forbidden = append(forbidden,
						lp.Term{Var: f.aVar(k, fi, dir), Coeff: 1},
						lp.Term{Var: f.bVar(k, fi, dir), Coeff: 1})
				}
			}
		}
		if len(forbidden) > 0 {
			if err := f.add(lp.Constraint{Terms: forbidden, Sense: lp.Equal, RHS: 0}); err != nil {
				return err
			}
		}
		// Eq. 3 lines 2-3: source emits and destination absorbs n*Y_k
		// Core and m*Y_k Support qubits.
		type flowSpec struct {
			varOf func(k, fiber, dir int) int
			mult  int
		}
		specs := []flowSpec{{f.aVar, f.form.coreQubits()}, {f.bVar, f.form.supportQubits()}}
		for _, spec := range specs {
			if spec.mult == 0 { // Raw: force all Core flow to zero
				var all []lp.Term
				for fi := 0; fi < net.NumFibers(); fi++ {
					for dir := 0; dir < 2; dir++ {
						all = append(all, lp.Term{Var: spec.varOf(k, fi, dir), Coeff: 1})
					}
				}
				if err := f.add(lp.Constraint{Terms: all, Sense: lp.Equal, RHS: 0}); err != nil {
					return err
				}
				continue
			}
			into := f.flowTerms(k, spec.varOf, r.Dst, true)
			into = append(into, lp.Term{Var: f.yVar(k), Coeff: -float64(spec.mult)})
			if err := f.add(lp.Constraint{Terms: into, Sense: lp.Equal, RHS: 0}); err != nil {
				return err
			}
			out := f.flowTerms(k, spec.varOf, r.Src, false)
			out = append(out, lp.Term{Var: f.yVar(k), Coeff: -float64(spec.mult)})
			if err := f.add(lp.Constraint{Terms: out, Sense: lp.Equal, RHS: 0}); err != nil {
				return err
			}
			// Eq. 4 lines 2-3: conservation at every relay.
			for _, rel := range net.Relays() {
				terms := f.flowTerms(k, spec.varOf, rel, true)
				for _, t := range f.flowTerms(k, spec.varOf, rel, false) {
					terms = append(terms, lp.Term{Var: t.Var, Coeff: -1})
				}
				if err := f.add(lp.Constraint{Terms: terms, Sense: lp.Equal, RHS: 0}); err != nil {
					return err
				}
			}
		}
		// Eq. 4 line 1: at servers, arriving flow is whole re-assembled
		// codes: sum_in a = n * x_r and sum_in b = m * x_r.
		for sp, srv := range f.form.servers {
			if f.form.coreQubits() > 0 {
				terms := f.flowTerms(k, f.aVar, srv, true)
				terms = append(terms, lp.Term{Var: f.xVar(k, sp), Coeff: -float64(f.form.coreQubits())})
				if err := f.add(lp.Constraint{Terms: terms, Sense: lp.Equal, RHS: 0}); err != nil {
					return err
				}
			}
			terms := f.flowTerms(k, f.bVar, srv, true)
			terms = append(terms, lp.Term{Var: f.xVar(k, sp), Coeff: -float64(f.form.supportQubits())})
			if err := f.add(lp.Constraint{Terms: terms, Sense: lp.Equal, RHS: 0}); err != nil {
				return err
			}
		}
		// Eq. 6: noise constraints, per-code normalized.
		if p.Design == SurfNet {
			n := float64(p.CoreQubits)
			var core []lp.Term
			for fi := 0; fi < net.NumFibers(); fi++ {
				mu := net.Fiber(fi).Noise()
				for dir := 0; dir < 2; dir++ {
					core = append(core, lp.Term{Var: f.aVar(k, fi, dir), Coeff: mu / n})
				}
			}
			for sp := range f.form.servers {
				core = append(core, lp.Term{Var: f.xVar(k, sp), Coeff: -p.Omega})
			}
			lower := append([]lp.Term(nil), core...)
			if err := f.add(lp.Constraint{Terms: lower, Sense: lp.GreaterEq, RHS: 0}); err != nil {
				return err
			}
			upper := append([]lp.Term(nil), core...)
			upper = append(upper, lp.Term{Var: f.yVar(k), Coeff: -p.CoreThreshold})
			if err := f.add(lp.Constraint{Terms: upper, Sense: lp.LessEq, RHS: 0}); err != nil {
				return err
			}
		}
		total := float64(p.TotalQubits())
		var whole []lp.Term
		for fi := 0; fi < net.NumFibers(); fi++ {
			mu := net.Fiber(fi).Noise()
			for dir := 0; dir < 2; dir++ {
				if p.Design == SurfNet {
					whole = append(whole, lp.Term{Var: f.aVar(k, fi, dir), Coeff: 0.5 * mu / total})
				}
				whole = append(whole, lp.Term{Var: f.bVar(k, fi, dir), Coeff: mu / total})
			}
		}
		for sp := range f.form.servers {
			whole = append(whole, lp.Term{Var: f.xVar(k, sp), Coeff: -p.Omega})
		}
		whole = append(whole, lp.Term{Var: f.yVar(k), Coeff: -p.TotalThreshold})
		if err := f.add(lp.Constraint{Terms: whole, Sense: lp.LessEq, RHS: 0}); err != nil {
			return err
		}
	}
	return nil
}

func (f *fullLP) addNetworkRows() error {
	net, p := f.form.net, f.form.params
	// Eq. 5 line 1: relay storage capacity over all requests.
	for _, rel := range net.Relays() {
		capacity := float64(net.Node(rel).Capacity)
		if p.Design == Raw {
			capacity *= p.RawCapacityFactor
		}
		var terms []lp.Term
		for k := range f.form.reqs {
			terms = append(terms, f.flowTerms(k, f.aVar, rel, true)...)
			terms = append(terms, f.flowTerms(k, f.bVar, rel, true)...)
		}
		if err := f.add(lp.Constraint{Terms: terms, Sense: lp.LessEq, RHS: capacity}); err != nil {
			return err
		}
	}
	// Eq. 5 line 2: entangled-pair budget per fiber (both directions).
	if p.Design == SurfNet {
		for fi := 0; fi < net.NumFibers(); fi++ {
			var terms []lp.Term
			for k := range f.form.reqs {
				for dir := 0; dir < 2; dir++ {
					terms = append(terms, lp.Term{Var: f.aVar(k, fi, dir), Coeff: 1})
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
// v for request k under the variable family varOf.
func (f *fullLP) flowTerms(k int, varOf func(k, fiber, dir int) int, v int, into bool) []lp.Term {
	var terms []lp.Term
	for _, fi := range f.form.net.Incident(v) {
		fb := f.form.net.Fiber(int(fi))
		for dir := 0; dir < 2; dir++ {
			head := f.arcHead(int(fi), dir)
			if into && head == v || !into && head != v {
				terms = append(terms, lp.Term{Var: varOf(k, int(fb.ID), dir), Coeff: 1})
			}
		}
	}
	return terms
}
