package multiapp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lp"
)

// Model is a reusable handle on the multi-application rational
// relaxation. Where Relaxed builds and cold-solves a one-shot
// lp.Problem, a Model is built once and re-solved after incremental
// capacity mutations — the §1 adaptability scenario, where observed
// per-epoch speeds, gateway availabilities and link budgets are
// injected into the next period's solve. Capacity changes are RHS or
// native variable-bound mutations, so every re-solve warm-starts the
// revised simplex from the previous optimal basis.
//
// A link whose merged (7d)+(7e) constraint covers exactly one pooled
// route variable is not a row at all: α_{a,l}/bw ≤ budget collapses
// to the native upper bound α_{a,l} ≤ budget·bw, shrinking the basis
// the same way core.Model's retired β bound rows did. SetLinkBudget
// transparently mutates the bound instead of a row for such links.
type Model struct {
	pr  *Problem
	obj core.Objective

	prob *lp.Problem
	rev  *lp.Revised

	varIdx map[appVar]int

	speedRow   []int // LP row of cluster l's (7b) constraint, -1 if absent
	gatewayRow []int // LP row of cluster k's (7c) constraint, -1 if absent
	linkRow    []int // LP row of link li's merged (7d)+(7e) constraint, -1 if absent or bound-encoded

	linkVar  []int           // variable natively bounded by link li, -1 when row-encoded or absent
	budget   []float64       // current per-link connection budgets
	varBW    map[int]float64 // route bottleneck bandwidth behind each bounded variable
	varLinks map[int][]int   // bound-encoded links constraining each variable

	basis *lp.Basis // last optimal basis, used to warm-start re-solves
}

type appVar struct{ a, l int }

// NewModel validates the problem and builds the α-space relaxation
// once, with every capacity right-hand side mutable in place.
func (pr *Problem) NewModel(obj core.Objective) (*Model, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	K := pr.Platform.K()
	A := len(pr.Apps)
	pl := pr.Platform

	m := &Model{pr: pr, obj: obj, varIdx: make(map[appVar]int)}
	var vars []appVar
	for a := 0; a < A; a++ {
		origin := pr.Apps[a].Origin
		for l := 0; l < K; l++ {
			if l != origin && !pl.Route(origin, l).Exists {
				continue
			}
			m.varIdx[appVar{a, l}] = len(vars)
			vars = append(vars, appVar{a, l})
		}
	}
	nv := len(vars)
	tVar := -1
	total := nv
	if obj == core.MAXMIN {
		tVar = nv
		total++
	}
	prob := lp.New(total)

	switch obj {
	case core.SUM:
		for i, v := range vars {
			prob.SetObjective(i, pr.Apps[v.a].Payoff)
		}
	case core.MAXMIN:
		prob.SetObjective(tVar, 1)
		any := false
		for a := 0; a < A; a++ {
			if pr.Apps[a].Payoff <= 0 {
				continue
			}
			any = true
			terms := []lp.Term{{Var: tVar, Coeff: 1}}
			for l := 0; l < K; l++ {
				if idx, ok := m.varIdx[appVar{a, l}]; ok {
					terms = append(terms, lp.Term{Var: idx, Coeff: -pr.Apps[a].Payoff})
				}
			}
			prob.AddConstraint(terms, lp.LE, 0)
		}
		if !any {
			return nil, fmt.Errorf("multiapp: MAXMIN with no positive payoff")
		}
	default:
		return nil, fmt.Errorf("multiapp: unknown objective %v", obj)
	}

	// (7b) speeds.
	m.speedRow = make([]int, K)
	for l := 0; l < K; l++ {
		m.speedRow[l] = -1
		var terms []lp.Term
		for a := 0; a < A; a++ {
			if idx, ok := m.varIdx[appVar{a, l}]; ok {
				terms = append(terms, lp.Term{Var: idx, Coeff: 1})
			}
		}
		if len(terms) > 0 {
			m.speedRow[l] = prob.AddConstraint(terms, lp.LE, pl.Clusters[l].Speed)
		}
	}
	// (7c) gateways.
	m.gatewayRow = make([]int, K)
	for k := 0; k < K; k++ {
		m.gatewayRow[k] = -1
		var terms []lp.Term
		for a := 0; a < A; a++ {
			origin := pr.Apps[a].Origin
			for l := 0; l < K; l++ {
				idx, ok := m.varIdx[appVar{a, l}]
				if !ok {
					continue
				}
				if (origin == k && l != k) || (origin != k && l == k) {
					terms = append(terms, lp.Term{Var: idx, Coeff: 1})
				}
			}
		}
		if len(terms) > 0 {
			m.gatewayRow[k] = prob.AddConstraint(terms, lp.LE, pl.Clusters[k].Gateway)
		}
	}
	// (7d)+(7e) per link, pooled per origin route. Links carrying a
	// single pooled variable become native upper bounds instead of
	// rows: α/bw ≤ budget ⇔ α ≤ budget·bw.
	linkUse := make([][]lp.Term, len(pl.Links))
	for _, v := range vars {
		origin := pr.Apps[v.a].Origin
		if v.l == origin {
			continue
		}
		rt := pl.Route(origin, v.l)
		if rt.MinBW <= 0 || math.IsInf(rt.MinBW, 1) {
			continue
		}
		inv := 1.0 / rt.MinBW
		for _, li := range rt.Links {
			linkUse[li] = append(linkUse[li], lp.Term{Var: m.varIdx[v], Coeff: inv})
		}
	}
	m.linkRow = make([]int, len(pl.Links))
	m.linkVar = make([]int, len(pl.Links))
	m.budget = make([]float64, len(pl.Links))
	m.varBW = make(map[int]float64)
	m.varLinks = make(map[int][]int)
	m.prob = prob
	for li := range pl.Links {
		m.linkRow[li], m.linkVar[li] = -1, -1
		m.budget[li] = float64(pl.Links[li].MaxConnect)
		use := linkUse[li]
		switch {
		case len(use) == 0:
		case len(use) == 1:
			v := use[0].Var
			m.linkVar[li] = v
			m.varBW[v] = 1 / use[0].Coeff // the route's MinBW
			m.varLinks[v] = append(m.varLinks[v], li)
		default:
			m.linkRow[li] = prob.AddConstraint(use, lp.LE, m.budget[li])
		}
	}
	for v := range m.varLinks {
		m.applyVarCap(v)
	}

	m.rev = lp.NewRevised(prob)
	return m, nil
}

// applyVarCap writes the effective native upper bound of variable v:
// the tightest budget·bw cap among the bound-encoded links on its
// route (links shared with other routes keep their rows and do not
// participate).
func (m *Model) applyVarCap(v int) {
	ub := math.Inf(1)
	for _, li := range m.varLinks[v] {
		if c := m.budget[li] * m.varBW[v]; c < ub {
			ub = c
		}
	}
	m.prob.SetVarBounds(v, 0, ub)
}

// SetSpeed mutates cluster l's computing-speed capacity (7b). A
// cluster hosting no activity variables has no speed row; the call is
// then a no-op.
func (m *Model) SetSpeed(l int, speed float64) error {
	if l < 0 || l >= len(m.speedRow) {
		return fmt.Errorf("multiapp: cluster %d out of range", l)
	}
	if speed < 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return fmt.Errorf("multiapp: speed %g invalid", speed)
	}
	if r := m.speedRow[l]; r >= 0 {
		m.prob.SetRHS(r, speed)
	}
	return nil
}

// SetGateway mutates cluster k's gateway capacity (7c).
func (m *Model) SetGateway(k int, g float64) error {
	if k < 0 || k >= len(m.gatewayRow) {
		return fmt.Errorf("multiapp: cluster %d out of range", k)
	}
	if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		return fmt.Errorf("multiapp: gateway %g invalid", g)
	}
	if r := m.gatewayRow[k]; r >= 0 {
		m.prob.SetRHS(r, g)
	}
	return nil
}

// SetLinkBudget mutates backbone link li's connection budget (7d):
// an RHS change for shared links, a native upper-bound change for
// links that were folded into a variable bound at build time. Both
// preserve warm-startability.
func (m *Model) SetLinkBudget(li int, maxConnect float64) error {
	if li < 0 || li >= len(m.linkRow) {
		return fmt.Errorf("multiapp: link %d out of range", li)
	}
	if maxConnect < 0 || math.IsNaN(maxConnect) || math.IsInf(maxConnect, 0) {
		return fmt.Errorf("multiapp: max-connect %g invalid", maxConnect)
	}
	m.budget[li] = maxConnect
	if r := m.linkRow[li]; r >= 0 {
		m.prob.SetRHS(r, maxConnect)
	} else if v := m.linkVar[li]; v >= 0 {
		m.applyVarCap(v)
	}
	return nil
}

// Solve solves the relaxation under the current capacities,
// warm-starting from the previous solve's basis when one exists.
func (m *Model) Solve() (*RelaxedSolution, error) {
	sol, basis, err := m.rev.SolveFrom(m.basis)
	if err != nil {
		return nil, err
	}
	m.basis = basis
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("multiapp: relaxation %v (zero is always feasible)", sol.Status)
	}
	K := m.pr.Platform.K()
	A := len(m.pr.Apps)
	out := &RelaxedSolution{Objective: sol.Objective}
	out.Alpha = make([][]float64, A)
	for a := 0; a < A; a++ {
		out.Alpha[a] = make([]float64, K)
	}
	for v, idx := range m.varIdx {
		x := sol.X[idx]
		if x < 0 {
			x = 0
		}
		out.Alpha[v.a][v.l] = x
	}
	return out, nil
}
