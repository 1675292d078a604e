package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// warmAudit holds what a context keeps or computes in one pass to what
// recomputing it gives: after every refreshRHS, the bound state, row
// shifts, effective rhs and scale of a full refresh, bit for bit; after
// every start from the frozen state, the basic values to a full
// computeXB's within 1e-9·(1+scale) and the infeasibility set, scale,
// residue and entry verdict to full recomputations exactly; before every
// pivot and primal bound flip, the infeasibility set, the leaving-row
// choice and stall sum walked over it, and priceScan's two answers
// against two dense scans. It counts what it saw so a test can show it
// was not vacuous.
type warmAudit struct {
	t                   *testing.T
	refreshes, pivots   int
	inSet, choices, out int
	starts, moved       int     // starts from the frozen state; those that moved some xb
	worst               float64 // the largest |xb − computeXB's| / (1+scale) a start left
}

// attach audits r from here on, after whatever r.onPivot already does.
func (a *warmAudit) attach(r *Revised) {
	r.onRefresh = func() { a.refresh(r) }
	r.onStart = func(wide, narrow bool) { a.start(r, wide, narrow) }
	prev := r.onPivot
	r.onPivot = func() {
		if prev != nil {
			prev()
		}
		a.pivot(r)
	}
}

// start fails unless the state startFrozen left is, within roundoff, the
// one computeXB, artificialResidue and priceScan give over it.
func (a *warmAudit) start(r *Revised, wide, narrow bool) {
	a.t.Helper()
	a.starts++
	if len(r.dIdx) > 0 {
		a.moved++
	}
	ref := slices.Clone(r.b)
	for j := 0; j < r.nstruct; j++ {
		if r.atUpper[j] {
			u := r.U[j]
			r.effCol(j, func(i int, v float64) { ref[i] -= v * u })
		}
	}
	r.fac.ftran(ref, ref)
	for i, x := range ref {
		gap := math.Abs(r.xb[i]-x) / (1 + r.scale)
		if !(gap <= 1e-9) {
			a.t.Fatalf("start: xb[%d] = %v, a full computeXB gives %v (gap %g·(1+scale) > 1e-9·(1+scale))", i, r.xb[i], x, gap)
		}
		a.worst = math.Max(a.worst, gap)
	}
	a.inSet += a.infeasSet(r, "start")
	scale := 0.0
	for _, v := range r.b {
		scale = math.Max(scale, math.Abs(v))
	}
	if !sameBits(scale, r.scale) {
		a.t.Fatalf("start: scale %v, max |b| %v", r.scale, scale)
	}
	if res := r.artificialResidue(); !sameBits(res, r.resid) {
		a.t.Fatalf("start: residue %v, a full sum %v", r.resid, res)
	}
	if dw, dn := densePricesOut(r, r.dualTol()), densePricesOut(r, eps); dw != wide || dn != narrow {
		a.t.Fatalf("start: entry verdict %v, %v; the dense scans %v, %v", wide, narrow, dw, dn)
	}
}

// infeasSet fails unless the infeasibility set is exactly {i : xb_i < 0
// or xb_i > U}, and returns its size.
func (a *warmAudit) infeasSet(r *Revised, where string) (n int) {
	a.t.Helper()
	for i := 0; i < r.m; i++ {
		x, u := r.xb[i], r.U[r.basis[i]]
		want := x < 0 || x > u
		if got := r.infeas[i>>6]>>(i&63)&1 == 1; got != want {
			a.t.Fatalf("%s: row %d in the infeasibility set = %v, xb %v, U %v", where, i, got, x, u)
		}
		if want {
			n++
		}
	}
	return n
}

// refresh fails unless a full refresh, run over the state the refresh
// just left, changes no bit of it.
func (a *warmAudit) refresh(r *Revised) {
	a.t.Helper()
	a.refreshes++
	lbs, U, acc, b := slices.Clone(r.lbs), slices.Clone(r.U), slices.Clone(r.acc), slices.Clone(r.b)
	up, scale := slices.Clone(r.atUpper), r.scale
	r.refreshAll()
	for name, v := range map[string][2][]float64{"lbs": {lbs, r.lbs}, "U": {U, r.U}, "acc": {acc, r.acc}, "b": {b, r.b}} {
		for i := range v[0] {
			if !sameBits(v[0][i], v[1][i]) {
				a.t.Fatalf("refresh: %s[%d] = %v, a full refresh gives %v", name, i, v[0][i], v[1][i])
			}
		}
	}
	if !sameBits(scale, r.scale) {
		a.t.Fatalf("refresh: scale %v, a full refresh gives %v", scale, r.scale)
	}
	for j := range up {
		if up[j] != r.atUpper[j] {
			a.t.Fatalf("refresh: column %d left at its upper bound, which a full refresh clears (U = %v, basic %v)", j, r.U[j], r.inBasis[j])
		}
	}
}

// denseLeaving is the dual's leaving-row choice as a loop over all m rows.
func denseLeaving(r *Revised, bland bool, ftol float64) (leave int, below bool) {
	leave = -1
	bestScore := 0.0
	for i := 0; i < r.m; i++ {
		u := r.U[r.basis[i]]
		if bland {
			isBelow := r.xb[i] < -ftol
			above := !math.IsInf(u, 1) && r.xb[i] > u+ftol
			if (isBelow || above) && (leave == -1 || r.basis[i] < r.basis[leave]) {
				leave, below = i, isBelow
			}
			continue
		}
		v, isBelow := -r.xb[i], true
		if !math.IsInf(u, 1) {
			if above := r.xb[i] - u; above > v {
				v, isBelow = above, false
			}
		}
		if v <= ftol {
			continue
		}
		if score := v * v / r.dseW[i]; score > bestScore {
			bestScore, leave, below = score, i, isBelow
		}
	}
	return leave, below
}

// denseInfeasibility is the dual's stall sum as a loop over all m rows.
func denseInfeasibility(r *Revised) float64 {
	sum := 0.0
	for i := 0; i < r.m; i++ {
		if r.xb[i] < 0 {
			sum -= r.xb[i]
		} else if u := r.U[r.basis[i]]; !math.IsInf(u, 1) && r.xb[i] > u {
			sum += r.xb[i] - u
		}
	}
	return sum
}

// densePricesOut is the reduced-cost scan at one tolerance, to the end.
func densePricesOut(r *Revised, tol float64) bool {
	out := false
	for j, cbar := range r.dj {
		if (cbar > tol && !r.atUpper[j] || cbar < -tol && r.atUpper[j]) && !r.inBasis[j] && r.U[j] > 0 {
			out = true
		}
	}
	return out
}

// pivot fails unless the infeasibility set is exactly {i : xb_i < 0 or
// xb_i > U} and the walks over it choose and sum what the dense loops do,
// at the feasibility tolerance and at zero (which lets every set row
// compete), and unless priceScan answers what two dense scans do — at the
// warm path's tolerances and at a pair far apart.
func (a *warmAudit) pivot(r *Revised) {
	a.t.Helper()
	a.pivots++
	a.inSet += a.infeasSet(r, "pivot")
	for _, ftol := range []float64{r.feasTol(), 0} {
		for _, bland := range []bool{false, true} {
			l, b := r.chooseLeaving(bland, ftol)
			dl, db := denseLeaving(r, bland, ftol)
			if l != dl || b != db {
				a.t.Fatalf("pivot: leaving row (bland %v, ftol %g) %d below %v, the dense loop %d below %v", bland, ftol, l, b, dl, db)
			}
			if l >= 0 {
				a.choices++
			}
		}
	}
	if s, d := r.infeasibility(), denseInfeasibility(r); !sameBits(s, d) {
		a.t.Fatalf("pivot: infeasibility %v, the dense sum %v", s, d)
	}
	for _, tol := range [][2]float64{{r.dualTol(), eps}, {eps, eps}, {1e-3, 0}} {
		w, n := r.priceScan(tol[0], tol[1])
		if dw, dn := densePricesOut(r, tol[0]), densePricesOut(r, tol[1]); w != dw || n != dn {
			a.t.Fatalf("pivot: priceScan(%g, %g) = %v, %v; the dense scans %v, %v", tol[0], tol[1], w, n, dw, dn)
		}
		if w && n {
			a.out++
		}
	}
}

// refreshMutation applies one of the writes the change list must get
// right and returns what it was.
func refreshMutation(rng *rand.Rand, p *Problem) string {
	i, j := rng.Intn(len(p.rows)), rng.Intn(p.nvars)
	lb, ub := p.lb[j], p.ub[j]
	switch rng.Intn(8) {
	case 0:
		p.SetRHS(i, p.rows[i].rhs*(0.5+rng.Float64())+rng.NormFloat64())
		return "rhs"
	case 1:
		p.SetRHS(i, p.rows[i].rhs)
		p.SetVarBounds(j, lb, ub)
		return "equal-value writes"
	case 2:
		p.SetRHS(i, math.Copysign(0, -math.Copysign(1, p.rows[i].rhs)))
		return "rhs ±0"
	case 3:
		p.SetVarBounds(j, math.Copysign(0, -math.Copysign(1, lb)), ub)
		return "lb ±0"
	case 4:
		// A lower-bound shift keeping the width: every row of column j
		// re-sums its shift.
		d := rng.Float64() * 2
		p.SetVarBounds(j, d, ub-lb+d)
		return "lb shift"
	case 5:
		switch rng.Intn(3) {
		case 0:
			p.SetVarBounds(j, lb, lb) // fixed: an at-upper column must leave its bound
		case 1:
			p.SetVarBounds(j, lb, math.Inf(1))
		default:
			p.SetVarBounds(j, lb, lb+rng.Float64()*4)
		}
		return "ub"
	case 6:
		mutateProblem(rng, p)
		return "batch"
	}
	return "nothing"
}

// TestRefreshTracksChanges: random SetRHS / SetVarBounds sequences —
// equal-value writes, +0 ↔ −0, lower-bound shifts on columns in several
// rows — solved through a second context on the same Problem, a fork,
// Rebase, basis installs after Infeasible verdicts, Freeze…Rewind rounds
// with and without the problem put back, a Rewind after a cold fallback
// and one after a Rebase, with a full refresh holding every incremental
// one — bounds, at-upper set, row shifts, rhs and scale — to its bits
// before every solve and every answer held to a cold solve of the same
// program. No clock is read.
func TestRefreshTracksChanges(t *testing.T) {
	a := &warmAudit{t: t}
	var incremental, installs, staleInstalls, fallbacks, foreignDrains int
	seen := map[string]int{}
	solve := func(r *Revised, bas *Basis, where string) *Basis {
		t.Helper()
		switch {
		case bas != nil && r.signInit && r.factorized && r.rhsOK && r.p.ch.owner == r.id:
			incremental++
		case bas != nil && r.signInit && r.factorized && r.rhsOK:
			foreignDrains++
		case bas != nil && r.signInit && !r.factorized && r.rhsOK:
			installs++
		}
		before := r.stats.ColdFallbacks
		sol, err := r.SolveFrom(bas)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		next := r.Basis()
		fallbacks += r.stats.ColdFallbacks - before
		want, err := NewRevised(r.p.clone()).SolveFrom(nil)
		if err != nil {
			t.Fatalf("%s: reference: %v", where, err)
		}
		if sol.Status != want.Status || sol.Status == Optimal && math.Abs(sol.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
			t.Fatalf("%s: %v %.12g, a cold solve of the same program %v %.12g", where, sol.Status, sol.Objective, want.Status, want.Objective)
		}
		return next
	}
	mutate := func(rng *rand.Rand, p *Problem) {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			seen[refreshMutation(rng, p)]++
		}
	}

	// A row whose rhs is negative gets sign −1 from every cold solve and
	// +1 from Rebase. Freeze after a Rebase, solve cold, Rebase, Rewind:
	// the signs put back equal the current ones, yet b was computed under
	// the cold solve's, so the Rebase must have left the next refresh full.
	{
		p := New(2)
		p.SetObjective(0, 1)
		p.SetObjective(1, 1)
		p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, -2)
		p.AddConstraint([]Term{{0, 1}}, LE, 3)
		p.AddConstraint([]Term{{1, 1}}, LE, 4)
		r := NewRevised(p)
		a.attach(r)
		bas := solve(r, nil, "negative rhs: cold")
		r.Rebase()
		bas = solve(r, bas, "negative rhs: rebased")
		if err := r.Freeze(); err != nil {
			t.Fatal(err)
		}
		solve(r, nil, "negative rhs: cold again")
		if r.sign[0] != -1 {
			t.Fatalf("the cold solve chose sign %v for a row with rhs −2", r.sign[0])
		}
		r.Rebase()
		r.Rewind()
		solve(r, bas, "negative rhs: rebased, then rewound")
	}

	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		var p *Problem
		switch seed % 3 {
		case 0:
			p = whatIfLP(rng, 30, 20) // columns in several rows each
		case 1:
			p = randomBoundedProblem(rng, true)
		default:
			p = randomBoundedProblem(rng, false)
		}
		r := NewRevised(p)
		a.attach(r)
		bas := solve(r, nil, "cold")
		committed := saveProblem(p)

		// The first solve made the list r's; a write of the bits already
		// there lists nothing.
		p.SetRHS(0, p.rows[0].rhs)
		p.SetVarBounds(0, p.lb[0], p.ub[0])
		if len(p.ch.rows.list)+len(p.ch.vars.list) != 0 || p.ch.owner != r.id {
			t.Fatalf("seed %d: equal writes listed %v / %v (owner %d, context %d)", seed, p.ch.rows.list, p.ch.vars.list, p.ch.owner, r.id)
		}

		// A basis install onto bounds that moved since it was taken: its
		// at-upper claims went stale under a solve that drained the list,
		// then an Infeasible verdict dropped the factorization, so the
		// next solve installs it and must re-sanitize every claim.
		stale := 0
		for _, j := range bas.upper {
			if int(j) < p.nvars {
				p.SetVarBounds(int(j), p.lb[j], math.Inf(1))
				stale++
			}
		}
		solve(r, bas, "claims gone stale")
		box := p.rows[len(p.rows)-1].terms[0].Var // in a ≤ row with positive coefficients
		lb, ub := p.lb[box], p.ub[box]
		p.SetVarBounds(box, 1e6, math.Inf(1))
		if sol, _ := r.SolveFrom(bas); sol.Status != Infeasible {
			t.Fatalf("seed %d: lb 1e6 on variable %d left the program %v", seed, box, sol.Status)
		}
		p.SetVarBounds(box, lb, ub)
		if stale > 0 {
			staleInstalls++
		}
		solve(r, bas, "install")
		committed.restore(p)

		for k := 0; k < 6; k++ {
			mutate(rng, p)
			bas = solve(r, bas, "continued")
		}
		// A second context on the same Problem drains the list: each
		// context's next solve then refreshes in full.
		r2 := NewRevised(p)
		a.attach(r2)
		bas2 := solve(r2, nil, "second context cold")
		for k := 0; k < 4; k++ {
			mutate(rng, p)
			if k%2 == 0 {
				bas = solve(r, bas, "first context")
			} else {
				bas2 = solve(r2, bas2, "second context")
			}
		}
		committed.restore(p)
		bas = solve(r, bas, "committed")
		if err := r.Freeze(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			mutate(rng, p)
			solve(r, bas, "what-if")
			if k%3 != 2 {
				committed.restore(p)
			}
			// else: rewound onto bounds the Freeze never saw
			r.Rewind()
		}
		committed.restore(p)

		// A cold fallback rewrites the signs; the Rewind after it puts
		// back ones b was not computed under.
		r.Rewind()
		for n := 0; n < 4; n++ {
			mutateProblem(rng, p)
		}
		r.SetBudgetOverride(1)
		solve(r, bas, "forced fallback")
		r.SetBudgetOverride(0)
		committed.restore(p)
		r.Rewind()
		solve(r, bas, "rewound after a fallback")
		mutate(rng, p)
		solve(r, bas, "after that")

		// Rebase, then a fork and its own sequence.
		r.Rebase()
		bas = solve(r, bas, "rebased")
		f, err := r.Fork()
		if err != nil {
			t.Fatal(err)
		}
		a.attach(f)
		fbas := bas
		for k := 0; k < 5; k++ {
			mutate(rng, f.Problem())
			fbas = solve(f, fbas, "fork")
			if k == 2 {
				f.Rewind()
			}
		}
		mutate(rng, p)
		solve(r, bas, "parent after the fork")
	}
	t.Logf("%d refreshes audited (%d incremental, %d after another context drained, %d basis installs, %d onto stale claims), %d cold fallbacks, %d pivots audited; writes %v",
		a.refreshes, incremental, foreignDrains, installs, staleInstalls, fallbacks, a.pivots, seen)
	if incremental < 500 || foreignDrains < 20 || staleInstalls < 10 || fallbacks == 0 || seen["lb shift"] == 0 || seen["rhs ±0"] == 0 {
		t.Fatal("the sequences reached too little")
	}
}
