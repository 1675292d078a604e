package core

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// Model is a reusable handle on the explicit (α, β) rational
// relaxation of program (7). Where Relaxed/MixedRelaxed build a
// one-shot lp.Problem per call, a Model is built once per
// (problem, objective) pair and then re-solved many times under
// mutated per-route β bounds: every β variable carries native
// [lb, ub] bounds that SetBounds mutates in place through
// lp.Problem.SetVarBounds — no bound rows, so branching and pinning
// never grow the constraint matrix. Because bound changes (like RHS
// changes) leave every reduced cost intact, each re-solve can
// warm-start the revised simplex from a previous optimal basis
// (lp.Revised's dual-simplex restart) — the engine behind the exact
// branch-and-bound solver's node relaxations and LPRR's pin sequence.
//
// Platform capacities are equally mutable: SetSpeed, SetGateway and
// SetLinkBudget rewrite the right-hand sides of the (7b), (7c) and
// (7d) rows in place, mirroring multiapp.Model's mutators. This is
// the §1 adaptability contract — the constraint structure is frozen
// at build time, capacities and bounds drift epoch to epoch —
// exploited by adapt's warm epoch engine.
//
// The model keeps no history of those writes and offers no snapshot of
// them: its mutable state is a function of the last capacities written
// (adapt.InjectCapacities, from a platform) and the current β boxes,
// whatever the order or number of writes before. A caller that posed a
// hypothetical returns to its committed state by injecting the
// committed platform again and calling ResetBounds.
type Model struct {
	pr  *Problem
	obj Objective

	prob *lp.Problem
	rev  *lp.Revised

	alphaIdx map[Pair]int
	betaIdx  map[Pair]int
	betaVars []Pair       // row-major order
	betaOrd  map[Pair]int // route → ordinal into the per-β slices below

	// Per-β-route mutable state, indexed by the betaVars ordinal —
	// slices, not maps, because ResetBounds and the per-epoch
	// capacity injections walk every route on hot paths.
	betaVarIdx   []int     // LP variable index per ordinal
	natural      []float64 // cap implied by link budgets
	curLb, curUb []float64 // explicit SetBounds state (curUb < 0: none)
	crossed      []bool    // lb > effective ub
	numCrossed   int

	speedRow   []int     // LP row of cluster l's (7b) constraint, -1 if absent
	gatewayRow []int     // LP row of cluster k's (7c) constraint, -1 if absent
	linkRow    []int     // LP row of link li's (7d) constraint, -1 if absent
	budget     []float64 // current per-link connection budgets
	linkRoutes [][]int32 // β ordinals whose route crosses each link
}

// NewModel validates the problem and builds the α/β relaxation with
// native mutable β bounds, all starting at [0, natural cap]. The
// natural cap of route p is the smallest max-connect budget among the
// links its path crosses — already implied by (7d), so the default
// bounds leave the relaxation exactly equivalent to MixedRelaxed with
// no bounds.
func (pr *Problem) NewModel(obj Objective) (*Model, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	K := pr.K()
	pl := pr.Platform
	m := &Model{
		pr:       pr,
		obj:      obj,
		alphaIdx: make(map[Pair]int),
		betaIdx:  make(map[Pair]int),
		betaOrd:  make(map[Pair]int),
	}

	var order []Pair
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if k != l && !pl.Route(k, l).Exists {
				continue
			}
			order = append(order, Pair{k, l})
		}
	}
	n := 0
	for _, p := range order {
		m.alphaIdx[p] = n
		n++
	}
	for _, p := range order {
		if p.K == p.L {
			continue
		}
		rt := pl.Route(p.K, p.L)
		if len(rt.Links) == 0 {
			continue // same-router: no backbone crossing, no β
		}
		m.betaIdx[p] = n
		m.betaOrd[p] = len(m.betaVars)
		m.betaVars = append(m.betaVars, p)
		n++
	}
	tVar := -1
	if obj == MAXMIN {
		tVar = n
		n++
	}
	prob := lp.New(n)

	switch obj {
	case SUM:
		for p, idx := range m.alphaIdx {
			prob.SetObjective(idx, pr.Payoffs[p.K])
		}
	case MAXMIN:
		prob.SetObjective(tVar, 1)
		any := false
		for k := 0; k < K; k++ {
			if pr.Payoffs[k] <= 0 {
				continue
			}
			any = true
			terms := []lp.Term{{Var: tVar, Coeff: 1}}
			for l := 0; l < K; l++ {
				if idx, ok := m.alphaIdx[Pair{k, l}]; ok {
					terms = append(terms, lp.Term{Var: idx, Coeff: -pr.Payoffs[k]})
				}
			}
			prob.AddConstraint(terms, lp.LE, 0)
		}
		if !any {
			return nil, fmt.Errorf("core: MAXMIN objective with no positive payoff")
		}
	default:
		return nil, fmt.Errorf("core: unknown objective %v", obj)
	}

	// (7b) speed.
	m.speedRow = make([]int, K)
	for l := 0; l < K; l++ {
		m.speedRow[l] = -1
		var terms []lp.Term
		for k := 0; k < K; k++ {
			if idx, ok := m.alphaIdx[Pair{k, l}]; ok {
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
		for l := 0; l < K; l++ {
			if l == k {
				continue
			}
			if idx, ok := m.alphaIdx[Pair{k, l}]; ok {
				terms = append(terms, lp.Term{Var: idx, Coeff: 1})
			}
			if idx, ok := m.alphaIdx[Pair{l, k}]; ok {
				terms = append(terms, lp.Term{Var: idx, Coeff: 1})
			}
		}
		if len(terms) > 0 {
			m.gatewayRow[k] = prob.AddConstraint(terms, lp.LE, pl.Clusters[k].Gateway)
		}
	}
	// (7d) per-link connection budgets over β.
	linkUse := make([][]lp.Term, len(pl.Links))
	m.linkRoutes = make([][]int32, len(pl.Links))
	for ord, p := range m.betaVars {
		bIdx := m.betaIdx[p]
		rt := pl.Route(p.K, p.L)
		for _, li := range rt.Links {
			linkUse[li] = append(linkUse[li], lp.Term{Var: bIdx, Coeff: 1})
			m.linkRoutes[li] = append(m.linkRoutes[li], int32(ord))
		}
	}
	m.linkRow = make([]int, len(pl.Links))
	m.budget = make([]float64, len(pl.Links))
	for li := range pl.Links {
		m.linkRow[li] = -1
		m.budget[li] = float64(pl.Links[li].MaxConnect)
		if len(linkUse[li]) > 0 {
			m.linkRow[li] = prob.AddConstraint(linkUse[li], lp.LE, m.budget[li])
		}
	}
	// (7e) α_{k,l} − β_{k,l}·bw_min ≤ 0. Every β route crosses at
	// least one backbone link (same-router routes, whose MinBW is +Inf,
	// carry no β variable), so bw is finite here; the guard keeps ±Inf
	// out of the LP even if that invariant is ever relaxed.
	for _, p := range m.betaVars {
		bw := pl.Route(p.K, p.L).MinBW
		if math.IsInf(bw, 1) {
			continue
		}
		prob.AddConstraint([]lp.Term{
			{Var: m.alphaIdx[p], Coeff: 1},
			{Var: m.betaIdx[p], Coeff: -bw},
		}, lp.LE, 0)
	}
	// Mutable β bounds, [0, natural cap] each. The natural cap (min
	// link budget over the path) is finite for the same reason.
	m.prob = prob
	m.betaVarIdx = make([]int, len(m.betaVars))
	for ord, p := range m.betaVars {
		m.betaVarIdx[ord] = m.betaIdx[p]
	}
	m.natural = make([]float64, len(m.betaVars))
	m.curLb = make([]float64, len(m.betaVars))
	m.curUb = make([]float64, len(m.betaVars))
	m.crossed = make([]bool, len(m.betaVars))
	for ord := range m.betaVars {
		m.natural[ord] = m.naturalCap(ord)
		m.curLb[ord] = 0
		m.curUb[ord] = -1
		m.applyBounds(ord)
	}

	m.rev = lp.NewRevised(prob)
	return m, nil
}

// SolverStats returns the lp solver's accumulated activity counters
// (pivots, refactorizations, bound flips, warm/cold solve mix) for
// this model's persistent revised-simplex instance — the per-solve
// cost drivers the scheduling service's /stats reports.
func (m *Model) SolverStats() lp.Stats { return m.rev.Stats() }

// WarmPivotBudget reports the pivot budget a warm restart on this
// model's solver gets before falling back cold — the denominator the
// scheduling service's health conditions measure warm-restart
// headroom against.
func (m *Model) WarmPivotBudget() int { return m.rev.WarmPivotBudget() }

// PrimeWarm prepares this model's freshly built solver to accept an
// imported basis warm (see lp.Revised.PrimeWarm): a scheduling
// session rebuilt from a serialized snapshot on another replica calls
// this before its first Solve so the restored basis restarts the dual
// simplex instead of triggering a cold solve. A no-op once the model
// has solved.
func (m *Model) PrimeWarm() { m.rev.PrimeWarm() }

// Rebase puts the solver on the canonical footing a snapshot-restored
// model starts from (see lp.Revised.Rebase): identity row signs, no
// live factorization, fresh pricing. A scheduling session calls this
// at each committed solve so the answer is a pure function of the
// model's discrete state — matrix, capacities, bounds, carried basis
// — and therefore bit-identical whether the solve runs on the session
// that has served every epoch live or on a replica promoted from a
// snapshot mid-history.
func (m *Model) Rebase() { m.rev.Rebase() }

// BetaVars lists the routes carrying a β variable in deterministic
// row-major order — the same set RemoteRoutes reports.
func (m *Model) BetaVars() []Pair {
	out := make([]Pair, len(m.betaVars))
	copy(out, m.betaVars)
	return out
}

// naturalCap returns the β cap link budgets imply on the ord-th β
// route: the smallest current budget among the links its path
// crosses.
func (m *Model) naturalCap(ord int) float64 {
	p := m.betaVars[ord]
	nat := math.Inf(1)
	for _, li := range m.pr.Platform.Route(p.K, p.L).Links {
		if c := m.budget[li]; c < nat {
			nat = c
		}
	}
	return nat
}

// applyBounds writes the ord-th β route's effective bounds: the
// explicit SetBounds state clipped to the (possibly mutated) natural
// link-budget cap. An empty box is rejected at this layer — the LP
// never sees lb > ub; the route is recorded as crossed and Solve
// short-circuits to infeasible.
func (m *Model) applyBounds(ord int) {
	lb := m.curLb[ord]
	ub := m.natural[ord]
	if e := m.curUb[ord]; e >= 0 && e < ub {
		ub = e
	}
	if lb > ub {
		if !m.crossed[ord] {
			m.crossed[ord] = true
			m.numCrossed++
		}
		return
	}
	if m.crossed[ord] {
		m.crossed[ord] = false
		m.numCrossed--
	}
	m.prob.SetVarBounds(m.betaVarIdx[ord], lb, ub)
}

// SetBounds mutates route p's β bounds in place (a bound-only
// change, preserving warm-startability). Ub < 0 means unbounded
// above, which the model realizes as the route's natural link-budget
// cap.
func (m *Model) SetBounds(p Pair, b BetaBounds) error {
	ord, ok := m.betaOrd[p]
	if !ok {
		return fmt.Errorf("core: β bounds on route (%d,%d) with no β variable", p.K, p.L)
	}
	lb := b.Lb
	if lb < 0 {
		lb = 0
	}
	ub := b.Ub
	if ub < 0 {
		ub = -1
	}
	m.curLb[ord] = lb
	m.curUb[ord] = ub
	m.applyBounds(ord)
	return nil
}

// ResetBounds restores every β bound to its default [0, natural cap].
func (m *Model) ResetBounds() {
	for ord := range m.betaVars {
		if m.curLb[ord] == 0 && m.curUb[ord] == -1 {
			continue // already at the default
		}
		m.curLb[ord] = 0
		m.curUb[ord] = -1
		m.applyBounds(ord)
	}
}

// SetSpeed mutates cluster l's computing-speed capacity (7b) — an
// RHS-only change. A cluster hosting no activity variables has no
// speed row; the call is then a no-op.
func (m *Model) SetSpeed(l int, speed float64) error {
	if l < 0 || l >= len(m.speedRow) {
		return fmt.Errorf("core: cluster %d out of range", l)
	}
	if speed < 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return fmt.Errorf("core: speed %g invalid", speed)
	}
	if r := m.speedRow[l]; r >= 0 {
		m.prob.SetRHS(r, speed)
	}
	return nil
}

// SetGateway mutates cluster k's gateway capacity (7c) — an RHS-only
// change.
func (m *Model) SetGateway(k int, g float64) error {
	if k < 0 || k >= len(m.gatewayRow) {
		return fmt.Errorf("core: cluster %d out of range", k)
	}
	if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		return fmt.Errorf("core: gateway %g invalid", g)
	}
	if r := m.gatewayRow[k]; r >= 0 {
		m.prob.SetRHS(r, g)
	}
	return nil
}

// SetLinkBudget mutates backbone link li's connection budget (7d) and
// propagates the change into the natural β caps of every route whose
// path crosses the link (their effective upper bounds are re-applied,
// still clipped by any explicit SetBounds state). RHS and variable
// bounds only, so warm-startability is preserved.
func (m *Model) SetLinkBudget(li int, maxConnect float64) error {
	if li < 0 || li >= len(m.linkRow) {
		return fmt.Errorf("core: link %d out of range", li)
	}
	if maxConnect < 0 || math.IsNaN(maxConnect) || math.IsInf(maxConnect, 0) {
		return fmt.Errorf("core: max-connect %g invalid", maxConnect)
	}
	if m.budget[li] == maxConnect {
		return nil // no-op injection: the natural caps are unchanged
	}
	m.budget[li] = maxConnect
	if r := m.linkRow[li]; r >= 0 {
		m.prob.SetRHS(r, maxConnect)
	}
	for _, ord := range m.linkRoutes[li] {
		if nat := m.naturalCap(int(ord)); nat != m.natural[ord] {
			m.natural[ord] = nat
			m.applyBounds(int(ord))
		}
	}
	return nil
}

// Rows returns the model's constraint row count m — the basis
// dimension every simplex iteration pays for.
func (m *Model) Rows() int { return m.prob.NumConstraints() }

// Solve solves the relaxation under the current bounds. A non-nil
// `from` basis warm-starts the revised simplex (pass the basis
// returned by the parent/previous solve); the returned basis
// snapshots this solve's final basis for future warm starts.
// ok=false reports infeasibility of the current bound set — found
// either by the solver, or immediately when a route's lower bound
// crossed its effective cap (an empty box needs no LP).
func (m *Model) Solve(from *lp.Basis) (*MixedSolution, *lp.Basis, bool, error) {
	if m.numCrossed > 0 {
		return nil, nil, false, nil
	}
	sol, basis, err := m.rev.SolveFrom(from)
	if err != nil {
		return nil, nil, false, err
	}
	out, ok, err := m.extract(sol)
	return out, basis, ok, err
}

// SolveEphemeral is Solve for callers that discard the resulting
// basis — the what-if pattern: pose, solve, retract. It skips the
// lp layer's per-solve basis snapshot and X allocation (the solution
// is extracted from a scratch buffer before returning), and never
// mutates `from`, so the caller's committed basis stays valid.
func (m *Model) SolveEphemeral(from *lp.Basis) (*MixedSolution, bool, error) {
	if m.numCrossed > 0 {
		return nil, false, nil
	}
	sol, err := m.rev.SolveEphemeral(from)
	if err != nil {
		return nil, false, err
	}
	return m.extract(sol)
}

// SolveWith runs a one-shot cold solve of the current bound set
// through an explicit backend — the seam the tests use to check the
// model's warm solves against the lptest oracle.
func (m *Model) SolveWith(s lp.Solver) (*MixedSolution, bool, error) {
	if m.numCrossed > 0 {
		return nil, false, nil
	}
	sol, err := m.prob.SolveWith(s)
	if err != nil {
		return nil, false, err
	}
	return m.extract(sol)
}

func (m *Model) extract(sol lp.Solution) (*MixedSolution, bool, error) {
	switch sol.Status {
	case lp.Infeasible:
		return nil, false, nil
	case lp.Unbounded:
		return nil, false, fmt.Errorf("core: mixed relaxation unbounded (model bug)")
	}
	K := m.pr.K()
	out := &MixedSolution{Objective: sol.Objective, Beta: make(map[Pair]float64, len(m.betaIdx))}
	out.Alpha = make([][]float64, K)
	for k := 0; k < K; k++ {
		out.Alpha[k] = make([]float64, K)
	}
	for p, idx := range m.alphaIdx {
		v := sol.X[idx]
		if v < 0 {
			v = 0
		}
		out.Alpha[p.K][p.L] = v
	}
	for p, idx := range m.betaIdx {
		v := sol.X[idx]
		if v < 0 {
			v = 0
		}
		out.Beta[p] = v
	}
	return out, true, nil
}
