package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/platform"
)

// Model is a reusable handle on the explicit (α, β) encoding of program
// (7)'s rational relaxation, β kept as columns under (7d) and (7e)
// (DESIGN.md "β elimination"): the one relaxation the heuristics round,
// cold-solved alike by a session's create and heuristics.Relax. A Model
// is built once per (problem, objective) pair and then re-solved many
// times under mutated per-route β bounds: every β variable carries
// native [lb, ub] bounds that SetBounds mutates in
// place through lp.Problem.SetVarBounds — no bound rows, so branching
// and pinning never grow the constraint matrix. Because bound changes
// (like RHS changes) leave every reduced cost intact, each re-solve can
// warm-start the revised simplex from a previous optimal basis
// (lp.Revised's dual-simplex restart) — the engine behind the exact
// branch-and-bound solver's node relaxations and LPRR's pin sequence.
//
// Platform capacities are equally mutable: SetSpeed, SetGateway and
// SetLinkBudget rewrite the right-hand sides of the (7b), (7c) and
// (7d) rows in place, and Inject writes a whole platform's worth of
// them. This is the §1 adaptability contract — the constraint
// structure is frozen at build time, capacities and bounds drift epoch
// to epoch.
//
// Solve is the model's one solve, warm or cold, and returns only the
// bound. What a caller keeps of it it reads afterwards, before the next
// solve: Solution, the optimum's tables, or Diff, the optimum as the
// frozen one plus the cells that moved, and Basis, the warm start for a
// later solve. A branch-and-bound node that is pruned, a batched what-if
// and a commit's bound read none of them.
//
// The model keeps no history of those writes and offers no snapshot of
// them: its mutable state is a function of the last capacities written
// (Inject, from a platform) and the current β boxes, whatever the order
// or number of writes before. A caller that posed a hypothetical
// returns to its committed state by injecting the committed platform
// again and calling ResetBounds.
type Model struct {
	pr  *Problem
	obj Objective

	prob *lp.Problem
	rev  *lp.Revised

	alphaVars []Pair       // LP column i carries α of alphaVars[i]
	betaVars  []Pair       // row-major order
	betaOrd   map[Pair]int // route → ordinal into the per-β slices below

	// Per-β-route mutable state, indexed by the betaVars ordinal —
	// slices, not maps, because the per-epoch capacity injections walk
	// every route on hot paths.
	betaVarIdx   []int     // LP variable index per ordinal
	natural      []float64 // cap implied by link budgets
	curLb, curUb []float64 // explicit SetBounds state (curUb < 0: none)
	crossed      []bool    // lb > effective ub
	numCrossed   int
	// moved lists, once each (movedMark is its bitset, both grown on
	// first use), the ordinals SetBounds moved off the default [0, none]
	// since the last ResetBounds: every ordinal off it is listed, so
	// ResetBounds visits those instead of every route.
	moved     []int32
	movedMark []uint64

	speedRow   []int     // LP row of cluster l's (7b) constraint, -1 if absent
	gatewayRow []int     // LP row of cluster k's (7c) constraint, -1 if absent
	linkRow    []int     // LP row of link li's (7d) constraint, -1 if absent
	budget     []float64 // current per-link connection budgets
	linkRoutes [][]int32 // β ordinals whose route crosses each link

	// last is the last Solve's optimum, its X the solver's buffer (zero
	// unless that solve was feasible). cellOf maps an LP column to its
	// cell in a RelaxedSolution's block (-1: MAXMIN's t), colOf a cell to
	// its column (-1: none). frozen is the optimum the solver's frozen
	// start extracts to (frozenOf), read off by the first Diff after a
	// solve from it; diffCells and diffVals are the cells and values the
	// last Diff handed out.
	last          lp.Solution
	cellOf, colOf []int32
	frozen        *RelaxedSolution
	frozenOf      *lp.Solution
	diffCells     []int32
	diffVals      []float64
}

// BetaBounds carries bounds for one route's β variable — a
// branch-and-bound node's, an LPRR pin's, a what-if's box. Ub < 0 means
// unbounded above.
type BetaBounds struct {
	Lb float64
	Ub float64
}

// NewModel validates the problem and builds the α/β relaxation with
// native mutable β bounds, all starting at [0, natural cap]. The
// natural cap of route p is the smallest max-connect budget among the
// links its path crosses — already implied by (7d), so the default
// bounds leave the relaxation exactly program (7)'s.
func (pr *Problem) NewModel(obj Objective) (*Model, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	pl := pr.Platform
	lay := pr.alphaLayout()
	m := &Model{pr: pr, obj: obj, alphaVars: lay.vars, betaOrd: make(map[Pair]int)}

	// Columns: α by the shared layout, then one β per route that
	// crosses a backbone link (local and same-router routes open no
	// connection), then MAXMIN's level t.
	n := len(lay.vars)
	for _, p := range lay.vars {
		if len(pl.Route(p.K, p.L).Links) == 0 {
			continue
		}
		m.betaOrd[p] = len(m.betaVars)
		m.betaVars = append(m.betaVars, p)
		m.betaVarIdx = append(m.betaVarIdx, n)
		n++
	}
	if obj == MAXMIN {
		n++
	}
	prob := lp.New(n)
	if err := lay.addObjective(prob, obj); err != nil {
		return nil, err
	}
	m.speedRow, m.gatewayRow = lay.addClusterRows(prob)

	// (7d) per-link connection budgets over β.
	linkUse := make([][]lp.Term, len(pl.Links))
	m.linkRoutes = make([][]int32, len(pl.Links))
	for ord, p := range m.betaVars {
		for _, li := range pl.Route(p.K, p.L).Links {
			linkUse[li] = append(linkUse[li], lp.Term{Var: m.betaVarIdx[ord], Coeff: 1})
			m.linkRoutes[li] = append(m.linkRoutes[li], int32(ord))
		}
	}
	m.linkRow = make([]int, len(pl.Links))
	m.budget = make([]float64, len(pl.Links))
	for li := range pl.Links {
		m.budget[li] = float64(pl.Links[li].MaxConnect)
		m.linkRow[li] = addLE(prob, linkUse[li], m.budget[li])
	}
	// (7e) α_{k,l} − β_{k,l}·bw_min ≤ 0. Every β route crosses at
	// least one backbone link (same-router routes, whose MinBW is +Inf,
	// carry no β variable), so bw is finite here; the guard keeps ±Inf
	// out of the LP even if that invariant is ever relaxed.
	for ord, p := range m.betaVars {
		bw := pl.Route(p.K, p.L).MinBW
		if math.IsInf(bw, 1) {
			continue
		}
		prob.AddConstraint([]lp.Term{
			{Var: lay.col[p.K][p.L], Coeff: 1},
			{Var: m.betaVarIdx[ord], Coeff: -bw},
		}, lp.LE, 0)
	}
	// Mutable β bounds, [0, natural cap] each. The natural cap (min
	// link budget over the path) is finite for the same reason.
	m.prob = prob
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

	K := pr.K()
	m.cellOf = slices.Repeat([]int32{-1}, n)
	for i, p := range m.alphaVars {
		m.cellOf[i] = int32(p.K*K + p.L)
	}
	for ord, p := range m.betaVars {
		m.cellOf[m.betaVarIdx[ord]] = int32((K+p.K)*K + p.L)
	}
	m.colOf = slices.Repeat([]int32{-1}, 2*K*K)
	for j, c := range m.cellOf {
		if c >= 0 {
			m.colOf[c] = int32(j)
		}
	}
	m.rev = lp.NewRevised(prob)
	return m, nil
}

// Objective is the objective the model was built with, which every
// solve of it maximizes.
func (m *Model) Objective() Objective { return m.obj }

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

// Rebase puts the solver on the canonical footing a snapshot-restored
// model starts from (see lp.Revised.Rebase): identity row signs, no
// live factorization, fresh pricing. A scheduling session calls this
// at each committed solve so the answer is a pure function of the
// model's discrete state — matrix, capacities, bounds, carried basis
// — and therefore bit-identical whether the solve runs on the session
// that has served every epoch live or on a replica promoted from a
// snapshot mid-history.
func (m *Model) Rebase() { m.rev.Rebase() }

// BetaVars lists the routes carrying a β variable — every ordered pair
// (k, l), k ≠ l, whose route exists and crosses at least one backbone
// link — in row-major order.
func (m *Model) BetaVars() []Pair {
	out := make([]Pair, len(m.betaVars))
	copy(out, m.betaVars)
	return out
}

// HasBeta reports whether route p carries a β variable. The set is
// frozen with the model's structure.
func (m *Model) HasBeta(p Pair) bool {
	_, ok := m.betaOrd[p]
	return ok
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
	if lb != 0 || ub != -1 {
		m.markMoved(int32(ord))
	}
	m.applyBounds(ord)
	return nil
}

// markMoved lists ordinal ord in moved unless it is there already.
func (m *Model) markMoved(ord int32) {
	if m.movedMark == nil {
		m.movedMark = make([]uint64, (len(m.betaVars)+63)/64)
	}
	if w, bit := ord>>6, uint64(1)<<(ord&63); m.movedMark[w]&bit == 0 {
		m.movedMark[w] |= bit
		m.moved = append(m.moved, ord)
	}
}

// ResetBounds restores every β bound to its default [0, natural cap].
// Only the routes SetBounds moved since the last reset can be off it.
func (m *Model) ResetBounds() {
	for _, ord := range m.moved {
		m.movedMark[ord>>6] &^= 1 << (ord & 63)
		if m.curLb[ord] == 0 && m.curUb[ord] == -1 {
			continue // set back to the default since
		}
		m.curLb[ord] = 0
		m.curUb[ord] = -1
		m.applyBounds(int(ord))
	}
	m.moved = m.moved[:0]
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

// Inject writes pl's cluster capacities and link budgets into the
// model: speeds and gateways as RHS mutations, link budgets as RHS plus
// the affected routes' natural β caps (SetLinkBudget recomputes them) —
// all within the warm-start contract, so the next solve still restarts
// from the previous basis. pl must share the model's platform structure
// (routes and links); only capacities may differ.
//
// Every capacity is overwritten, so the model ends where a single
// injection of pl would have put it: the scheduling service's epoch
// commit injects the period's platform, and a what-if poses its
// hypothetical platform the same way and is retracted by injecting the
// committed platform again.
func (m *Model) Inject(pl *platform.Platform) error {
	for k, c := range pl.Clusters {
		if err := m.SetSpeed(k, c.Speed); err != nil {
			return err
		}
		if err := m.SetGateway(k, c.Gateway); err != nil {
			return err
		}
	}
	for li, l := range pl.Links {
		if err := m.SetLinkBudget(li, float64(l.MaxConnect)); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the model's constraint row count m — the basis
// dimension every simplex iteration pays for.
func (m *Model) Rows() int { return m.prob.NumConstraints() }

// Solve solves the relaxation under the current bounds and returns its
// bound, the optimal objective. A non-nil `from` basis warm-starts the
// revised simplex (pass a Basis taken after the parent/previous solve);
// it is never mutated. ok=false reports infeasibility of the current
// bound set — found either by the solver, or immediately when a route's
// lower bound crossed its effective cap (an empty box needs no LP) —
// and err a solver failure or an unbounded relaxation (a model bug).
// Solve extracts nothing: Solution reads the optimum, Basis the basis,
// each only for a caller that keeps it.
func (m *Model) Solve(from *lp.Basis) (bound float64, ok bool, err error) {
	m.last = lp.Solution{}
	if m.numCrossed > 0 {
		return 0, false, nil
	}
	sol, err := m.rev.SolveFrom(from)
	if err != nil {
		return 0, false, err
	}
	if ok, err = verdict(sol); !ok {
		return 0, false, err
	}
	m.last = sol
	return sol.Objective, true, nil
}

// Solution reads the last Solve's optimum, nil when it was not feasible;
// call it before the next solve or Rewind on the model. It writes Diff
// out for callers that read tables: the frozen optimum itself, shared,
// when nothing moved, else a solution of its own. After a solve Diff
// does not tell, it is a fresh extraction. Read-only either way.
func (m *Model) Solution() *RelaxedSolution {
	if d, ok := m.Diff(); ok {
		if len(d.Cells) == 0 && math.Float64bits(d.Objective) == math.Float64bits(d.Base.Objective) {
			return d.Base
		}
		return d.Dense()
	}
	if m.last.X == nil {
		return nil
	}
	out, _, _ := m.extract(m.last)
	return out
}

// Diff reads the last Solve's optimum as the frozen optimum plus the
// cells that moved, and writes out no dense block. It tells every solve
// that started from the frozen state (the first after Freeze or Rewind)
// and ended optimal without a refactorization or a cold fallback,
// whether it pivoted or not (lp.Revised.Moved); ok is false after any
// other. Cells and Values are the model's, valid until the next Diff:
// copy what you keep. The first Diff after a Freeze extracts the frozen
// optimum once, into a block of its own that later answers share and no
// later Freeze writes.
func (m *Model) Diff() (d Diff, ok bool) {
	base, _, cols := m.rev.Moved()
	if base == nil || m.last.X == nil {
		return Diff{}, false
	}
	if m.frozenOf != base {
		m.frozen, _, _ = m.extract(*base)
		m.frozenOf = base
	}
	f, x := m.frozen, m.last.X
	m.diffCells = m.diffCells[:0]
	for _, j := range cols {
		if c := m.cellOf[j]; c >= 0 && math.Float64bits(nonneg(x[j])) != math.Float64bits(f.cells[c]) {
			m.diffCells = append(m.diffCells, c)
		}
	}
	slices.Sort(m.diffCells)
	m.diffVals = m.diffVals[:0]
	for _, c := range m.diffCells {
		m.diffVals = append(m.diffVals, nonneg(x[m.colOf[c]]))
	}
	return Diff{Base: f, Cells: m.diffCells, Values: m.diffVals, Objective: m.last.Objective}, true
}

// Basis snapshots the basis the last solve ended on, for a later warm
// start (lp.Revised.Basis).
func (m *Model) Basis() *lp.Basis { return m.rev.Basis() }

// SolverCols is the solver's internal column count, the length of a
// Basis's at-upper statuses (lp.Revised.NumCols).
func (m *Model) SolverCols() int { return m.rev.NumCols() }

// extract reads an optimum back column by column: α from the layout's
// columns, β from each route's own.
func (m *Model) extract(sol lp.Solution) (*RelaxedSolution, bool, error) {
	if ok, err := verdict(sol); !ok {
		return nil, false, err
	}
	K := m.pr.K()
	out := newRelaxedSolution(K, K)
	out.Objective = sol.Objective
	for j, c := range m.cellOf {
		if c >= 0 {
			out.cells[c] = nonneg(sol.X[j])
		}
	}
	return out, true, nil
}
