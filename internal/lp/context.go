package lp

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// This file is the solve-context half of the Revised split: the
// orchestration that drives one solve of the owning Problem against
// the per-context mutable state (see revised.go for the state itself,
// factorization.go for the shared immutable half, pricing.go for the
// simplex loops and ratiotest.go for the ratio tests).

// SolveFrom solves the instance's problem with the current right-hand
// sides and variable bounds. With a nil basis (or whenever the basis
// turns out to be unusable — wrong size, singular, stale beyond
// repair) it runs a cold two-phase solve; otherwise it warm-starts
// from the basis with the dual simplex, which never mutates it. The
// returned Solution.X is the context's own buffer, valid until the next
// solve or Rewind on this context: copy out anything that must survive.
// Basis snapshots the final basis for a later warm start.
func (r *Revised) SolveFrom(bas *Basis) (Solution, error) {
	if len(r.p.rows) != r.m {
		panic(fmt.Sprintf("lp: Revised built over %d rows, problem now has %d (structure is frozen)", r.m, len(r.p.rows)))
	}
	r.gen++ // any solve may move the basis: the frozen state goes stale
	if bas != nil && r.signInit {
		if sol, ok := r.warmSolve(bas); ok {
			r.stats.WarmSolves++
			return sol, nil
		}
		r.stats.ColdFallbacks++
	}
	return r.coldSolve()
}

// Basis snapshots the context's current basis — the basic column set,
// the at-upper columns and, when the context has them, the steepest-edge
// weights with any pending update applied — as the last solve left it,
// for a later warm start of this context or of any other over the same
// constraint structure. The columns share one allocation.
func (r *Revised) Basis() *Basis {
	r.settleDSE()
	n := r.m
	for _, up := range r.atUpper {
		if up {
			n++
		}
	}
	ids := make([]int32, r.m, n)
	for i, c := range r.basis {
		ids[i] = int32(c)
	}
	for j, up := range r.atUpper {
		if up {
			ids = append(ids, int32(j))
		}
	}
	b := &Basis{cols: ids[:r.m:r.m], upper: ids[r.m:]}
	if r.dseOK {
		b.w = slices.Clone(r.dseW)
	}
	return b
}

// Rebase forces the next SolveFrom onto one canonical footing, the
// same on a freshly built instance and on one with any solve history:
// the row normalization is set to the identity (+1 everywhere — the
// sign vector is an arbitrary consistent row scaling, any fixed choice
// yields the same solutions) and the live factorization and pricing
// state are dropped, so the next solve installs the supplied basis,
// refactorizes it from scratch and prices from the steepest-edge
// weights the basis carries, or from exact ones computed on that fresh
// factorization when it carries none.
//
// On a fresh instance this is also what lets a basis imported from
// another process (a migrated or crash-recovered scheduling session)
// start warm: SolveFrom's warm path is gated on signInit, which is
// ordinarily set by the first cold solve. warmSolve then installs and
// validates the foreign basis, falling back to cold only if it is
// genuinely unusable.
//
// This exists for replicated deployments that need bit-identical
// answers from different instances. A live instance and one rebuilt
// from a snapshot agree on everything discrete — matrix, rhs, bounds,
// basis — yet solve from different internal state: the live one
// carries the data-dependent sign normalization its first cold solve
// chose, an accumulated (eta-file updated) factorization of
// possibly *another* basis it would rather continue from, and evolved
// pricing weights; the rebuilt one has none of them. Both states are
// correct, but on a degenerate problem they reach different optimal
// vertices, so downstream vertex-sensitive consumers (greedy rounding,
// integer repair) diverge. Calling Rebase on both sides before the solve
// collapses the histories: the result becomes a pure function of the
// supplied basis — its columns, at-upper set and weights, which is why
// a snapshot ships the weights with the basis. The cost is one
// refactorization, plus one exact weight initialization when the basis
// carries no weights — the pivot count is still a warm restart's, not a
// cold solve's. Forks are unaffected (they own private copies of all
// mutable state, and a shared frozen snapshot is immutable).
func (r *Revised) Rebase() {
	r.gen++ // the frozen state no longer describes this context
	for i := range r.sign {
		r.sign[i] = 1
	}
	r.signInit = true
	r.rhsOK = false // b was computed under the old signs
	r.factorized, r.dseOK, r.djOK, r.pend.on = false, false, false, false
	r.wholeMoved()
}

// warmPivotBudget bounds the pivots a dual-simplex warm restart may
// burn before giving up into the cold fallback. A useful restart
// finishes within a few sweeps of the basis; past that the old basis
// carries no information and the cold solve — whose early pivots on a
// fresh all-singleton factorization are far cheaper — wins. The
// budget scales with the instance instead of being a flat constant:
// a few multiples of the basis dimension m plus a term proportional
// to the constraint nonzeros (denser matrices move less infeasibility
// per pivot), floored so tiny problems keep headroom for degenerate
// shuffling. The 4·m multiplier was calibrated against eta-file pivot
// cost, which degrades with the file's length between rebuilds.
func (r *Revised) warmPivotBudget() int {
	if r.budgetOverride > 0 {
		return r.budgetOverride
	}
	return 4*r.m + len(r.sp.val)/2 + 256
}

// WarmPivotBudget reports the pivot budget a warm restart on this
// instance gets before falling back cold — the denominator the
// service layer's health conditions measure warm-restart headroom
// against.
func (r *Revised) WarmPivotBudget() int { return r.warmPivotBudget() }

// loadVar refreshes structural column j's bound state from the owning
// problem and sanitizes its at-upper status against it: a basic column,
// a column whose range became unbounded, or a fixed (U = 0) column
// cannot meaningfully rest at an upper bound. (Slack and artificial
// columns never rest there: the basis install clears any claim a
// foreign basis made.)
func (r *Revised) loadVar(j int) {
	r.lbs[j] = r.p.lb[j]
	r.U[j] = r.p.ub[j] - r.p.lb[j]
	r.sanitizeUpper(j)
}

func (r *Revised) sanitizeUpper(j int) {
	if r.atUpper[j] && (r.inBasis[j] || math.IsInf(r.U[j], 1) || r.U[j] <= 0) {
		r.atUpper[j] = false
	}
}

// refreshRHS brings the bound state, the effective rhs b =
// sign·(rhs − acc) (sign-normalized, lower-bound-shifted) and the
// tolerance scale up to date with the owning problem. While rhsOK it
// recomputes only what the problem's change list names; otherwise, or
// when the list was drained by another context since, everything.
// Either way the list is this context's afterwards.
func (r *Revised) refreshRHS() {
	rows, vars, mine := r.p.ch.drain(r.id)
	if mine && r.rhsOK {
		r.refreshListed(rows, vars)
	} else {
		r.refreshAll()
		r.redrift()
	}
	r.rhsOK = true
	if r.onRefresh != nil {
		r.onRefresh()
	}
}

// refreshAll is the full refresh: every column's bounds, every row's
// shift (scattered down the columns in ascending column order) and rhs.
func (r *Revised) refreshAll() {
	for j := 0; j < r.nstruct; j++ {
		r.loadVar(j)
	}
	acc := r.acc
	clear(acc)
	for j := 0; j < r.nstruct; j++ {
		if lb := r.lbs[j]; lb != 0 {
			for t := r.sp.colPtr[j]; t < r.sp.colPtr[j+1]; t++ {
				acc[r.sp.rowIdx[t]] += r.sp.val[t] * lb
			}
		}
	}
	for i := range r.b {
		r.b[i] = r.sign[i] * (r.p.rows[i].rhs - acc[i])
	}
	r.rescale()
}

// refreshListed is the incremental refresh: the listed variables'
// bounds; the frozen at-upper columns (after a Rewind they are the
// at-upper set, sanitized against the bounds of the Freeze); the shift
// of every row a moved lower bound reaches, re-summed along the row
// mirror in ascending column order — the order refreshAll adds the same
// terms in; and the rhs of those rows and of the listed ones. Every
// value is the bit pattern refreshAll would write, the scale included: a
// max is exact, so it is rescanned only when the row holding it shrank.
// What it rewrites joins the drift journal (see startFrozen).
func (r *Revised) refreshListed(rows, vars []int32) {
	for _, j32 := range vars {
		j := int(j32)
		if r.p.lb[j] != r.lbs[j] {
			for t := r.sp.colPtr[j]; t < r.sp.colPtr[j+1]; t++ {
				r.shifted.note(int(r.sp.rowIdx[t]), r.m)
			}
		}
		r.driftCols.note(j, r.nstruct)
		r.loadVar(j)
	}
	for _, j := range r.frozen.upper {
		r.sanitizeUpper(int(j))
	}
	shrank := false
	for _, i := range r.shifted.list {
		acc := 0.0
		vals := r.rowVals[i]
		for t, j := range r.rowCols[i] {
			if int(j) >= r.nstruct {
				break // slack columns follow the structural ones
			}
			if lb := r.lbs[j]; lb != 0 {
				acc += vals[t] * lb
			}
		}
		r.acc[i] = acc
		shrank = r.setB(int(i), r.sign[i]*(r.p.rows[i].rhs-acc)) || shrank
	}
	r.shifted.open()
	for _, i := range rows {
		shrank = r.setB(int(i), r.sign[i]*(r.p.rows[i].rhs-r.acc[i])) || shrank
	}
	if shrank {
		r.rescale()
	}
}

// setB writes b_i = v, recording the drift and raising the scale; it
// reports whether the row holding the scale shrank.
func (r *Revised) setB(i int, v float64) (shrank bool) {
	r.driftRows.note(i, r.m)
	r.b[i] = v
	if a := math.Abs(v); a > r.scale {
		r.scale, r.scaleRow = a, i
	} else if i == r.scaleRow && a < r.scale {
		return true
	}
	return false
}

// redrift rebuilds the drift journal — every row whose b and every
// structural column whose bounds differ from the frozen start's, kept
// since by refreshListed — by comparison; whole if no start or other signs.
func (r *Revised) redrift() {
	st := r.frozen.start
	if st == nil || !slices.Equal(r.sign, r.frozen.sign) {
		r.driftRows.setWhole()
		r.driftCols.setWhole()
		return
	}
	r.driftRows.open()
	r.driftCols.open()
	for i := 0; i < r.m; i++ {
		if r.b[i] != st.b[i] {
			r.driftRows.note(i, r.m)
		}
	}
	for j := 0; j < r.nstruct; j++ {
		if !sameBits(r.lbs[j], st.lbs[j]) || !sameBits(r.U[j], st.u[j]) {
			r.driftCols.note(j, r.nstruct)
		}
	}
}

// rescale sets the tolerance scale to max_i |b_i|.
func (r *Revised) rescale() {
	r.scale, r.scaleRow = 0, -1
	for i, v := range r.b {
		if a := math.Abs(v); a > r.scale {
			r.scale, r.scaleRow = a, i
		}
	}
}

func (r *Revised) feasTol() float64 { return eps * (1 + r.scale) }
func (r *Revised) dualTol() float64 { return 1e-7 * (1 + r.costScale) }

// nonbasicValue returns the shifted-space value a nonbasic column
// currently rests at.
func (r *Revised) nonbasicValue(j int) float64 {
	if r.atUpper[j] {
		return r.U[j]
	}
	return 0
}

// refactorize rebuilds the basis factorization from the current
// basis, counting it in the stats. Returns false when the basis
// matrix is numerically singular (the previous factorization is then
// still the live one). Every caller then recomputes the basic values
// whole (computeXB), which makes the moved journal whole.
func (r *Revised) refactorize() bool {
	r.settleDSE() // τ is solved on the factor this replaces
	t0 := time.Now()
	ok := r.fac.refactor()
	r.stats.Phase.RefactorNanos += int64(time.Since(t0))
	if !ok {
		return false
	}
	r.stats.Refactorizations++
	r.factorized = true
	return true
}

// wholeMoved makes the moved journal whole: a write covered a whole vector.
func (r *Revised) wholeMoved() {
	r.movedRows.setWhole()
	r.movedCols.setWhole()
}

// coldSolve runs the classical two-phase method from a slack basis,
// with every structural variable starting at its lower bound.
func (r *Revised) coldSolve() (Solution, error) {
	r.stats.ColdSolves++
	r.dseOK, r.djOK, r.pend.on = false, false, false // the basis is rebuilt from scratch below
	r.wholeMoved()
	clear(r.atUpper)
	for i := range r.sign {
		r.sign[i] = 1
	}
	r.signInit, r.rhsOK = true, false
	r.refreshRHS()
	r.driftRows.setWhole() // b and the signs are rewritten below
	r.driftCols.setWhole()
	for i := range r.b {
		if r.b[i] < 0 {
			r.sign[i] = -1
			r.b[i] = -r.b[i]
		}
	}

	// Initial basis: the slack column where it is basic-feasible
	// (effective coefficient +1, or rhs 0), the artificial otherwise.
	clear(r.inBasis)
	hasArt := false
	for i := range r.basis {
		col := r.artStart + i
		if sc := r.slackOfRow[i]; sc >= 0 {
			effCoef := r.sign[i] * r.slackSign(sc)
			if effCoef > 0 || r.b[i] == 0 {
				col = sc
			}
		}
		if col >= r.artStart {
			hasArt = true
		}
		r.basis[i] = col
		r.inBasis[col] = true
	}
	// The initial basis matrix is diagonal with ±1 pivots (slack
	// columns are ±e_i, artificials +e_i); factorizing it is all
	// singleton pivots.
	if !r.refactorize() {
		return Solution{}, fmt.Errorf("lp: internal error: initial diagonal basis singular")
	}
	r.computeXB()

	if hasArt {
		status, err := r.primal(r.c1)
		if err != nil {
			return Solution{}, err
		}
		if status == Unbounded {
			return Solution{}, fmt.Errorf("lp: internal error: phase 1 unbounded")
		}
		if r.artificialResidue() > infeasTol*(1+r.scale) {
			r.factorized = false
			return Solution{Status: Infeasible}, nil
		}
		r.driveOutArtificials()
	}
	status, err := r.primal(r.fullCosts())
	if err != nil {
		return Solution{}, err
	}
	return r.finish(status), nil
}

// warmSolve attempts a restart from bas. ok=false means the basis was
// unusable, or the restart failed, and the caller should cold-solve.
func (r *Revised) warmSolve(bas *Basis) (Solution, bool) {
	if len(bas.cols) != r.m {
		return Solution{}, false
	}
	// While the live factorization is valid its basis is already dual
	// feasible (see the struct invariant), so the cheapest restart is
	// to continue from the instance's current state — even when it is
	// not the supplied basis (e.g. a branch-and-bound sibling whose
	// parent basis was left behind by another subtree, or an LPRR pin
	// after the previous one): a few extra dual pivots beat a
	// refactorization. The supplied basis is installed only when no
	// live factorization exists. A caller that wants a solve not to
	// depend on the ones before it calls Rewind between them.
	if !r.factorized {
		r.dseOK, r.djOK, r.pend.on = false, false, false // weights and reduced costs describe the old basis
		clear(r.seen)
		for _, c := range bas.cols {
			if c < 0 || int(c) >= r.ncols || r.seen[c] {
				return Solution{}, false
			}
			r.seen[c] = true
		}
		clear(r.inBasis)
		for i, c := range bas.cols {
			r.basis[i], r.inBasis[c] = int(c), true
		}
		clear(r.atUpper)
		for _, j := range bas.upper {
			if j < 0 || int(j) >= r.ncols {
				return Solution{}, false // the cold solve rebuilds what was installed
			}
			// Slack and artificial columns are unbounded above and can
			// never rest at an upper bound: only structural claims count,
			// and the full refresh below sanitizes those.
			if int(j) < r.nstruct {
				r.atUpper[j] = true
			}
		}
		r.rhsOK = false
		if !r.refactorize() {
			r.factorized = false
			return Solution{}, false
		}
		// The basis's weights are adopted when they can price it; otherwise
		// the dual computes them exactly on this factorization.
		if usableWeights(bas.w, r.m) {
			copy(r.dseW, bas.w)
			r.dseOK = true
		}
	}
	// refreshRHS sanitizes the at-upper set against the (possibly
	// mutated) bounds before computeXB prices the nonbasic columns in.
	r.refreshRHS()
	// One pass over dj answers the dual's entry test and, unless the dual
	// moves the basis or the bounds it reads, the safety net after it.
	var dualInfeasible, pricesOut bool
	start := r.gen == r.frozen.gen+1 && !r.driftRows.whole() // the state is the frozen one
	if start {
		dualInfeasible, pricesOut = r.startFrozen()
	} else {
		r.computeXB()
		if !r.djOK {
			r.computeDJ()
		}
		dualInfeasible, pricesOut = r.priceScan(r.dualTol(), eps)
	}
	costs := r.fullCosts()
	moves := r.stats.Pivots + r.stats.BoundFlips + r.stats.Refactorizations
	still := func() bool { return r.stats.Pivots+r.stats.BoundFlips+r.stats.Refactorizations == moves }
	if !dualInfeasible {
		status, err := r.dual()
		if err != nil {
			r.factorized = false
			return Solution{}, false // e.g. iteration limit: retry cold
		}
		if status == Infeasible {
			// Confirm the verdict on a fresh factorization: update
			// (eta/product-form) drift can manufacture phantom box
			// violations, and an Infeasible built on one would be
			// reported as authoritative. Rebuilding is cheap and the
			// verdict is rare; if the exact basic values turn out
			// feasible the violation was roundoff and the optimality
			// path below takes over.
			if !r.refactorize() {
				r.factorized = false
				return Solution{}, false
			}
			r.computeXB()
			r.computeDJ()
			if r.primalFeasible() {
				status = Optimal
			} else if status, err = r.dual(); err != nil {
				r.factorized = false
				return Solution{}, false
			}
		}
		if status == Infeasible {
			if r.artificialResidue() > infeasTol*(1+r.scale) {
				// The infeasibility certificate was built on a basis
				// still carrying a stale artificial at macroscopic
				// value; don't trust it — recheck cold.
				r.factorized = false
				return Solution{}, false
			}
			return r.extract(Infeasible), true
		}
		// Safety net: the dual simplex ends primal+dual feasible, so the
		// primal's entering test finds nothing in the reduced costs the
		// dual carried here unless roundoff says otherwise; only then does
		// the primal run.
		if !still() {
			_, pricesOut = r.priceScan(eps, eps)
		}
		if pricesOut {
			if status, err = r.primal(costs); err != nil {
				r.factorized = false
				return Solution{}, false
			}
		}
		return r.finishWarm(status, start && still())
	}
	if r.primalFeasible() {
		status, err := r.primal(costs)
		if err != nil {
			r.factorized = false
			return Solution{}, false
		}
		return r.finishWarm(status, start && still())
	}
	return Solution{}, false
}

// finishWarm wraps finish for warm restarts: a sizeable residue on a
// basic artificial here means the basis carried a stale artificial
// into the new rhs (phase 1 never ran), so no verdict built on it is
// authoritative — an Optimal claim may hide infeasibility and an
// Unbounded ray may lean on the artificial subspace. Hand every such
// outcome to a cold solve instead of misreporting. A light solve — from
// the frozen start, moving nothing — has the residue its start left.
func (r *Revised) finishWarm(status Status, light bool) (Solution, bool) {
	resid := r.resid
	if !light {
		resid = r.artificialResidue()
	}
	if resid > infeasTol*(1+r.scale) {
		r.factorized = false
		return Solution{}, false
	}
	return r.extract(status), true
}

// finish converts the final simplex state of a cold solve into a
// Solution.
func (r *Revised) finish(status Status) Solution {
	if status == Optimal && r.artificialResidue() > infeasTol*(1+r.scale) {
		// A basic artificial kept a nonzero value: the (possibly
		// mutated) rhs is inconsistent with a dependent row set.
		r.factorized = false
		return Solution{Status: Infeasible}
	}
	return r.extract(status)
}

// extract reads the verdict and, when optimal, the structural values
// (into xscratch) and the objective off the final simplex state: patched
// from the start's while the moved journal lists what the solve moved.
func (r *Revised) extract(status Status) Solution {
	if status != Optimal {
		r.factorized = false
		r.wholeMoved()
		return Solution{Status: status}
	}
	x := r.xscratch
	if r.movedRows.whole() {
		r.xMoved.setWhole()
		r.extractX(x)
	} else {
		r.patchX()
	}
	return Solution{Status: Optimal, X: x, Objective: r.objective(x)}
}

// extractX writes every structural value into x.
func (r *Revised) extractX(x []float64) {
	for j := range x {
		x[j] = r.xValue(j, -1)
	}
	for i, bj := range r.basis {
		if bj < r.nstruct {
			x[bj] = r.xValue(bj, i)
		}
	}
}

// xValue is structural column j's value: basic in row i, clamped into its
// box, or (i < 0) nonbasic at the bound it rests at.
func (r *Revised) xValue(j, i int) float64 {
	v := 0.0
	if i >= 0 {
		if v = r.xb[i]; v < 0 {
			v = 0 // tolerance clamp
		} else if u := r.U[j]; !math.IsInf(u, 1) && v > u {
			v = u
		}
	} else if !r.inBasis[j] && r.atUpper[j] {
		v = r.U[j]
	}
	return r.lbs[j] + v
}

// objective is c·x. A zero cost adds ±0 to a sum that starts at +0 and
// never becomes −0, so summing over the cost-bearing columns alone
// changes no bit.
func (r *Revised) objective(x []float64) float64 {
	obj := 0.0
	for _, j := range r.costCols {
		obj += r.c[j] * x[j]
	}
	return obj
}

// patchX extracts a patched solve's X into xscratch: the start's x, put
// back where the X journal lists (all of it when whole), then rewritten,
// and journaled, at the basic column of every moved row and at every
// drifted or moved column now nonbasic: nothing else differs from the start.
func (r *Revised) patchX() {
	st, x := r.frozen.start, r.xscratch
	if r.xMoved.whole() {
		copy(x, st.sol.X)
	} else {
		for _, j := range r.xMoved.list {
			x[j] = st.sol.X[j]
		}
	}
	r.xMoved.open()
	for _, i := range r.movedRows.list {
		if j := r.basis[i]; j < r.nstruct {
			x[j] = r.xValue(j, int(i))
			r.xMoved.note(j, r.nstruct)
		}
	}
	for _, cols := range [2][]int32{r.driftCols.list, r.movedCols.list} {
		for _, j := range cols {
			if int(j) < r.nstruct && !r.inBasis[j] {
				x[j] = r.xValue(int(j), -1)
				r.xMoved.note(int(j), r.nstruct)
			}
		}
	}
}

// Moved says how the X of the last solve relates to the frozen start's.
// After a solve that started there (the first solve after Freeze or
// Rewind) and ended optimal without a refactorization or a cold fallback
// — with or without pivots and bound flips — base is the solution the
// start extracts to, one per Freeze, shared and read-only; X equals
// base.X outside cols, the columns the solve wrote, each once, in no order
// (a written value may equal base's); and rows counts the basis rows it
// moved. After any other solve, a Freeze or a Rebase, base is nil and X
// was extracted whole.
func (r *Revised) Moved() (base *Solution, rows int, cols []int32) {
	if r.movedRows.whole() || r.xMoved.whole() {
		return nil, 0, nil
	}
	return &r.frozen.start.sol, len(r.movedRows.list), r.xMoved.list
}

// setBasis installs cols as the basic column set.
func (r *Revised) setBasis(cols []int) {
	copy(r.basis, cols)
	clear(r.inBasis)
	for _, c := range r.basis {
		r.inBasis[c] = true
	}
}

func (r *Revised) fullCosts() []float64 { return r.c2 }

func (r *Revised) slackSign(col int) float64 {
	return r.slackCoef[col-r.nstruct]
}

// effCol iterates the effective (sign-normalized) entries of column j,
// calling fn(row, value) for each nonzero.
func (r *Revised) effCol(j int, fn func(i int, v float64)) {
	if j >= r.artStart {
		fn(j-r.artStart, 1)
		return
	}
	for t := r.sp.colPtr[j]; t < r.sp.colPtr[j+1]; t++ {
		i := int(r.sp.rowIdx[t])
		fn(i, r.sign[i]*r.sp.val[t])
	}
}

// colDotSigned returns ys·A_j where ys is already sign-normalized
// (ys[i] = y[i]*sign[i]).
func (r *Revised) colDotSigned(ys []float64, j int) float64 {
	if j >= r.artStart {
		i := j - r.artStart
		return ys[i] * r.sign[i] // effective entry is +1: y_i = ys_i*sign_i
	}
	return r.sp.dot(ys, j)
}

// direction computes the entering direction d = B^{-1}·A_j into r.d and
// its nonzero list into r.dIdx (an FTRAN of column j).
func (r *Revised) direction(j int) {
	t0 := time.Now()
	r.dIdx = r.fac.ftranCol(j, r.d, r.dIdx)
	r.stats.Phase.FTRANNanos += int64(time.Since(t0))
}

// onFrozenFactor reports whether the live factor is the frozen LU with an
// empty eta file. Every pivot appends an eta or refactorizes, and only a
// refactorization, which allocates, ends the borrowing, so the basis and
// the row signs are then the frozen ones as well: a pivot path through the
// path cache starts here.
func (r *Revised) onFrozenFactor() bool {
	return r.frozen.start != nil && r.fac.borrowed && len(r.fac.etas) == 0
}

// leavingRow computes ρ = e_pᵀB^{-1} into r.rho with its nonzero list in
// r.rhoIdx (a BTRAN of a unit vector), and returns ‖ρ‖².
func (r *Revised) leavingRow(p int) (gamma float64) {
	t0 := time.Now()
	r.rhoIdx, gamma = r.fac.btranRow(p, r.rho, r.rhoIdx[:0])
	r.stats.Phase.BTRANNanos += int64(time.Since(t0))
	return gamma
}

// signedRow fills ws whole with the signed leaving row amult·ρ·sign that
// the dense pricing arms dot the stored columns with, and returns it.
func (r *Revised) signedRow(amult float64) []float64 {
	for i, x := range r.rho {
		r.ws[i] = amult * x * r.sign[i]
	}
	return r.ws
}

// computeXB sets xb = B^{-1}·(b - Σ_{j at upper} A_j·U_j): the basic
// values given every nonbasic column resting at its current bound.
func (r *Revised) computeXB() {
	beff := r.beff
	copy(beff, r.b)
	for j := 0; j < r.nstruct; j++ {
		if r.atUpper[j] {
			u := r.U[j]
			r.effCol(j, func(i int, v float64) {
				beff[i] -= v * u
			})
		}
	}
	t0 := time.Now()
	r.fac.ftran(r.xb, beff)
	r.stats.Phase.FTRANNanos += int64(time.Since(t0))
	r.wholeMoved()
	for i := range r.xb {
		r.fileRow(i)
	}
}

// startFrozen is computeXB, computeDJ and the entry priceScan of a solve
// from the frozen start, at the cost of what moved since. The effective
// rhs moved by Δ: the drifted rows' change of b, and A_j times the change
// of the bound each frozen at-upper column rests at. So xb is the start's
// plus B⁻¹Δ, one FTRAN of a sparse rhs. It refiles, and so journals, the
// rows that moved and those whose basic column's box drifted. The residue
// is the start's unless an artificial's row moved; dj is the start's, and
// so is the verdict but at the drifted columns. Drift back at its frozen
// value leaves the journal.
func (r *Revised) startFrozen() (overWide, overNarrow bool) {
	st := r.frozen.start
	delta, rows := r.beff, &r.shifted
	add := func(i int, v float64) {
		n := len(rows.list)
		if rows.note(i, r.m); len(rows.list) > n {
			delta[i] = v
		} else {
			delta[i] += v
		}
	}
	r.driftRows.retain(func(i int32) bool {
		d := r.b[i] - st.b[i]
		if d != 0 {
			add(int(i), d)
		}
		return d != 0
	})
	for _, j := range r.frozen.upper {
		if du := r.nonbasicValue(int(j)) - st.u[j]; du != 0 {
			r.effCol(int(j), func(i int, v float64) { add(i, -v*du) })
		}
	}
	t0 := time.Now()
	r.dIdx = r.fac.ftranRows(rows.list, delta, r.d, r.dIdx)
	r.stats.Phase.FTRANNanos += int64(time.Since(t0))
	rows.open()
	r.movedRows.open() // the state was the frozen one: Freeze or Rewind
	r.movedCols.open()
	r.resid = st.residue
	for _, i := range r.dIdx {
		r.xb[i] += r.d[i]
		r.fileRow(int(i))
		r.movedRows.note(int(i), r.m)
		if r.basis[i] >= r.artStart {
			r.resid = -1
		}
	}
	if r.resid < 0 { // an artificial's row moved
		r.resid = r.artificialResidue()
	}
	overWide, overNarrow = st.overWide, st.overNarrow
	rescan := overNarrow // overWide implies it
	r.driftCols.retain(func(j int32) bool {
		if sameBits(r.lbs[j], st.lbs[j]) && sameBits(r.U[j], st.u[j]) {
			return false
		}
		if i := st.rowOf[j]; i >= 0 {
			r.fileRow(int(i))
			r.movedRows.note(int(i), r.m)
		} else if !rescan && r.outBy(int(j), eps) {
			overNarrow = true
			overWide = overWide || r.outBy(int(j), r.dualTol())
		}
		return true
	})
	if rescan {
		overWide, overNarrow = r.priceScan(r.dualTol(), eps)
	}
	if r.onStart != nil {
		r.onStart(overWide, overNarrow)
	}
	return overWide, overNarrow
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// fileRow files row i in or out of the infeasibility set by its basic
// value and the box of its basic column.
func (r *Revised) fileRow(i int) {
	bit := uint64(1) << (i & 63)
	if x := r.xb[i]; x < 0 || x > r.U[r.basis[i]] {
		r.infeas[i>>6] |= bit
	} else {
		r.infeas[i>>6] &^= bit
	}
}

// clampXB absorbs roundoff residue just outside the basic variable's
// box back onto the violated bound, then files and journals the row:
// every loop that moves xb outside computeXB ends each row here.
func (r *Revised) clampXB(i int, ftol float64) {
	r.movedRows.note(i, r.m)
	if r.xb[i] < 0 {
		if r.xb[i] > -ftol {
			r.xb[i] = 0
		}
	} else if u := r.U[r.basis[i]]; !math.IsInf(u, 1) && r.xb[i] > u && r.xb[i]-u < ftol {
		r.xb[i] = u
	}
	r.fileRow(i)
}

// pivotUpdate applies the basis change for entering column `enter`
// replacing the variable basic in row `leave`, with the entering
// variable moving by `step` (in shifted space, signed) from its
// current bound value; r.d and r.dIdx must hold direction(enter).
// leaveAtUpper records the bound the leaving variable departs at.
//
// The factorization absorbs the pivot as an eta append; when the
// update is refused on stability grounds or the eta file asks
// for its periodic rebuild, the basis is refactorized at this pivot
// boundary and xb recomputed exactly. Returns refactored=true in
// that case so callers maintaining incremental state (the dual's
// reduced costs) recompute it too.
func (r *Revised) pivotUpdate(leave, enter int, step float64, leaveAtUpper bool) (refactored bool) {
	if r.onPivot != nil {
		r.onPivot()
	}
	leaveCol := r.basis[leave]
	newVal := r.nonbasicValue(enter) + step
	ftol := r.feasTol()
	d := r.d
	okUpd := r.fac.update(leave, d, r.dIdx, false)
	r.movedCols.note(leaveCol, r.ncols)
	r.movedCols.note(enter, r.ncols)
	for _, i32 := range r.dIdx {
		if i := int(i32); i != leave {
			r.xb[i] -= step * d[i]
			r.clampXB(i, ftol)
		}
	}
	r.inBasis[leaveCol] = false
	r.atUpper[leaveCol] = leaveAtUpper && r.U[leaveCol] > 0 && !math.IsInf(r.U[leaveCol], 1)
	r.basis[leave] = enter
	r.inBasis[enter] = true
	r.atUpper[enter] = false
	r.xb[leave] = newVal
	r.fileRow(leave)
	r.movedRows.note(leave, r.m) // d's other rows, where the DSE update wrote too, in clampXB
	r.stats.Pivots++
	if !okUpd {
		// The factor refused the update as numerically unsafe:
		// rebuild from the (new) basis instead. If the rebuild fails
		// right now, fall back to force-applying the update — it is
		// exact algebra against the pre-pivot factorization — and
		// retry the rebuild after another batch of pivots.
		if r.refactorize() {
			r.computeXB()
			return true
		}
		r.fac.update(leave, d, r.dIdx, true)
		r.fac.deferRefactor()
		return false
	}
	if r.fac.shouldRefactor() {
		if r.refactorize() {
			r.computeXB()
			return true
		}
		// Singular at the checkpoint: keep running on the updated
		// factorization and only retry after another batch of pivots
		// instead of on every pivot.
		r.fac.deferRefactor()
	}
	return false
}

// boundFlip moves nonbasic column j across its box to the opposite
// bound — the pivot-free move of the bounded-variable simplex; r.d and
// r.dIdx must hold direction(j) and dir the direction of travel (+1 from
// lower to upper, -1 back).
func (r *Revised) boundFlip(j int, dir float64) {
	if r.onPivot != nil {
		r.onPivot()
	}
	step := dir * r.U[j]
	ftol := r.feasTol()
	for _, i := range r.dIdx {
		r.xb[i] -= step * r.d[i]
		r.clampXB(int(i), ftol)
	}
	r.movedCols.note(j, r.ncols)
	r.atUpper[j] = !r.atUpper[j]
	r.stats.BoundFlips++
}

// boundedObjective evaluates costs over the full bounded state:
// basic values plus the nonbasic columns resting at upper bounds
// (used for stall detection only, so the lower-bound shift constant
// is irrelevant).
func (r *Revised) boundedObjective(costs []float64) float64 {
	obj := 0.0
	for i, bj := range r.basis {
		obj += costs[bj] * r.xb[i]
	}
	for j := 0; j < r.nstruct; j++ {
		if r.atUpper[j] && costs[j] != 0 {
			obj += costs[j] * r.U[j]
		}
	}
	return obj
}

func (r *Revised) primalFeasible() bool {
	ftol := r.feasTol()
	for i := 0; i < r.m; i++ {
		if r.xb[i] < -ftol {
			return false
		}
		if u := r.U[r.basis[i]]; !math.IsInf(u, 1) && r.xb[i] > u+ftol {
			return false
		}
	}
	return true
}

// artificialResidue sums the values of basic artificial variables.
func (r *Revised) artificialResidue() float64 {
	sum := 0.0
	for i, bj := range r.basis {
		if bj >= r.artStart && r.xb[i] > 0 {
			sum += r.xb[i]
		}
	}
	return sum
}

// driveOutArtificials ejects every basic artificial that admits a
// well-scaled pivot on a real column (a degenerate pivot, since phase
// 1 left them at ~zero value); artificials in genuinely redundant
// rows stay basic and harmless — every entering direction has a zero
// component there. The pivot column is the one with the largest
// |pivot element| and must keep the implied entering value |xb/d|
// negligible, mirroring primalRatioTest's guard: ejection is an
// optimization, never worth corrupting feasibility over.
func (r *Revised) driveOutArtificials() {
	d := r.d
	ftol := r.feasTol()
	for i := 0; i < r.m; i++ {
		if r.basis[i] < r.artStart || r.xb[i] > ftol {
			continue
		}
		r.leavingRow(i)
		ws := r.signedRow(1)
		enter := -1
		bestPiv := eps
		for j := 0; j < r.artStart; j++ {
			if r.inBasis[j] {
				continue
			}
			if a := math.Abs(r.colDotSigned(ws, j)); a > bestPiv {
				bestPiv = a
				enter = j
			}
		}
		if enter == -1 || math.Abs(r.xb[i]) > bestPiv*ftol {
			continue
		}
		r.direction(enter)
		r.pivotUpdate(i, enter, r.xb[i]/d[i], false)
		r.dseOK, r.djOK = false, false
	}
}
