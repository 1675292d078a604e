package lp

import (
	"math"
	"math/bits"
	"time"
)

// This file holds the pricing side of the Revised split: candidate
// selection for both simplex methods — the primal's devex reference
// framework, exact dual steepest edge, the sparse leaving-row candidate
// walk, the reduced-cost vector the dual maintains along its pivot rows
// — and the primal/dual iteration loops built on them.

// dualCandidates collects the nonbasic non-artificial columns that can
// have a nonzero pivot-row entry for the leaving row leavingRow just
// computed: the union of the column lists of the rows in r.rhoIdx, less
// the basic columns, which pricing would discard. Columns outside the list
// have α = 0 and could never be dual ratio-test candidates, so pricing
// skips them — for a sparse leaving row this shrinks the entering pass
// from the full column space to a handful of columns. The walk down ρ's
// nonzero list also accumulates each candidate's pivot-row entry
// α_j = amult·(ρ·sign)·A_j into candAlpha (a scatter along the row-major
// mirror, in ascending row order, the signed entry formed where it is
// read), so the caller never gathers down a CSC column — a column gather
// reads every stored row of the column when typically only one or two
// intersect ρ's support. The skip reads inBasis, so the nonbasic columns
// keep the order they had among all (DESIGN.md "Pivot path: what a dual
// pivot touches"). A dense leaving row would make the union walk cost
// more than it saves, so past a work cutoff the result is (nil, false)
// and the caller prices the full column space directly with per-column
// dots.
func (r *Revised) dualCandidates(amult float64) ([]int32, bool) {
	// Cutoff by work, not by support count: the scatter visits
	// Σ nnz(row i) over ρ's support, the full scan visits every
	// stored nonzero. Below half the full-scan work the scatter wins
	// even after the stamp bookkeeping; beyond that the contiguous
	// CSC sweep's locality takes over. The count includes the basic
	// columns the scatter skips: the arm fixes α's summation order, so
	// which arm runs must not depend on the skip.
	work, budget := 0, len(r.sp.val)/2
	for _, i := range r.rhoIdx {
		if work += len(r.rowCols[i]); work > budget {
			return nil, false
		}
	}
	r.candCur++
	if r.candCur <= 0 { // stamp wraparound
		for i := range r.candStamp {
			r.candStamp[i] = 0
		}
		r.candCur = 1
	}
	lst, cur := r.candList[:0], r.candCur
	basic, stamp, alpha := r.inBasis, r.candStamp, r.candAlpha
	for _, i := range r.rhoIdx {
		s := amult * r.rho[i] * r.sign[i]
		cols, vals := r.rowCols[i], r.rowVals[i]
		for t, j := range cols {
			if basic[j] {
				continue
			}
			if stamp[j] != cur {
				stamp[j] = cur
				alpha[j] = 0
				lst = append(lst, j)
			}
			alpha[j] += s * vals[t]
		}
	}
	r.candList = lst
	return lst, true
}

// signedMultipliers computes ys with ys[i] = (c_B·B^{-1})_i * sign[i],
// ready for sparse pricing against the stored (unsigned) columns —
// a BTRAN of the basic cost vector.
func (r *Revised) signedMultipliers(costs []float64, ys []float64) {
	for i, bj := range r.basis {
		ys[i] = costs[bj]
	}
	t0 := time.Now()
	r.fac.btran(ys)
	r.stats.Phase.BTRANNanos += int64(time.Since(t0))
	for i := range ys {
		ys[i] *= r.sign[i]
	}
}

// computeDJ derives the reduced costs of the current basis under the
// phase-2 costs from scratch — dj[j] = c_j − y·A_j on every nonbasic
// priced column, 0 on basic ones, whatever the column's bounds — with one
// multiplier BTRAN and one sweep down the columns. It runs only where
// nothing maintained the vector (see Revised.dj) and at refactorizations,
// which bounds its drift the way they bound the factorization's.
func (r *Revised) computeDJ() {
	r.signedMultipliers(r.c2, r.ys)
	t0 := time.Now()
	for j := range r.dj {
		if r.inBasis[j] {
			r.dj[j] = 0
		} else {
			r.dj[j] = r.c2[j] - r.sp.dot(r.ys, j)
		}
	}
	r.stats.Phase.PricingNanos += int64(time.Since(t0))
	r.djOK = true
}

// devexResetLimit triggers a reference-framework reset when any devex
// weight outgrows it; the framework then restarts from the current
// basis with unit weights, the standard guard against the
// approximation drifting arbitrarily far from true steepest edge.
const devexResetLimit = 1e7

// resetDevexCols restarts the primal reference framework.
func (r *Revised) resetDevexCols() {
	for j := range r.dwCol {
		r.dwCol[j] = 1
	}
}

// updateDevexCols applies the primal devex weight update after a
// pivot: leavingRow(leave) must have run on the pre-pivot basis, aq is
// the pivot element d_leave, wq the entering column's weight and leaveCol
// the column that left the basis. For every nonbasic candidate j the
// reference weight becomes max(w_j, (α_rj/α_rq)²·w_q) with α_rj the
// pivot-row entry — one sparse pricing pass against rho.
func (r *Revised) updateDevexCols(aq, wq float64, enter, leaveCol int) {
	ws := r.signedRow(1)
	aq2 := aq * aq
	maxW := 0.0
	upd := func(j int) {
		if r.inBasis[j] || j == enter || r.U[j] <= 0 {
			return
		}
		alpha := r.colDotSigned(ws, j)
		if alpha == 0 {
			return
		}
		if cand := alpha * alpha / aq2 * wq; cand > r.dwCol[j] {
			r.dwCol[j] = cand
			if cand > maxW {
				maxW = cand
			}
		}
	}
	// Only columns intersecting the leaving row's support can have a
	// nonzero pivot-row entry; walk them via the CSR view when the
	// row is sparse, exactly like the dual's entering pass.
	if cands, ok := r.dualCandidates(1); ok {
		for _, j32 := range cands {
			upd(int(j32))
		}
	} else {
		for j := 0; j < r.artStart; j++ {
			upd(j)
		}
	}
	w := math.Max(wq/aq2, 1)
	r.dwCol[leaveCol] = w
	if w > maxW {
		maxW = w
	}
	if maxW > devexResetLimit {
		r.resetDevexCols()
	}
}

// primal runs the revised primal simplex with the given cost vector
// under the bounded-variable rules: a nonbasic column at its lower
// bound enters increasing on a positive reduced cost, one at its
// upper bound enters decreasing on a negative reduced cost, and an
// entering column blocked first by its own opposite bound flips
// without a pivot. Entering candidates are the non-artificial
// columns; artificials may only leave the basis.
//
// Pricing is devex over a reference framework reset at entry: among
// eligible candidates the one maximizing c̄²/w enters, approximating
// steepest-edge descent at Dantzig cost; Bland's rule takes over on
// objective stalls exactly as before.
func (r *Revised) primal(costs []float64) (Status, error) {
	maxIters := 200*(r.m+r.ncols) + 20000
	bland := false
	stall := 0
	lastObj := math.Inf(-1)
	ys, d := r.ys, r.d
	r.resetDevexCols()
	for iter := 0; iter < maxIters; iter++ {
		r.signedMultipliers(costs, ys)
		tPrice := time.Now()
		enter := -1
		dir := 1.0
		if bland {
			for j := 0; j < r.artStart; j++ {
				if r.inBasis[j] || r.U[j] <= 0 {
					continue
				}
				cbar := costs[j] - r.colDotSigned(ys, j)
				if !r.atUpper[j] && cbar > eps {
					enter, dir = j, 1
					break
				}
				if r.atUpper[j] && cbar < -eps {
					enter, dir = j, -1
					break
				}
			}
		} else {
			best := 0.0
			for j := 0; j < r.artStart; j++ {
				if r.inBasis[j] || r.U[j] <= 0 {
					continue
				}
				cbar := costs[j] - r.colDotSigned(ys, j)
				if r.atUpper[j] {
					cbar = -cbar
				}
				if cbar <= eps {
					continue
				}
				if score := cbar * cbar / r.dwCol[j]; score > best {
					best = score
					enter = j
					if r.atUpper[j] {
						dir = -1
					} else {
						dir = 1
					}
				}
			}
		}
		r.stats.Phase.PricingNanos += int64(time.Since(tPrice))
		if enter == -1 {
			return Optimal, nil
		}
		r.settleDSE() // a pending dual update reads d, which direction rewrites
		r.direction(enter)
		tRatio := time.Now()
		leave, leaveAtUpper, t := r.primalRatioTest(dir)
		r.stats.Phase.RatioTestNanos += int64(time.Since(tRatio))
		switch {
		case leave == -1 && math.IsInf(r.U[enter], 1):
			return Unbounded, nil
		case leave == -1 || r.U[enter] <= t:
			// The entering column reaches its opposite bound before
			// any basic column blocks: flip, no pivot.
			r.boundFlip(enter, dir)
		default:
			// Capture the pre-pivot leaving row and pivot element for
			// the devex update before the factorization moves on.
			r.leavingRow(leave)
			aq, wq, leaveCol := d[leave], r.dwCol[enter], r.basis[leave]
			r.pivotUpdate(leave, enter, dir*t, leaveAtUpper)
			r.stats.PrimalPivots++
			r.dseOK, r.djOK = false, false // the dual's weights and reduced costs are now stale
			tW := time.Now()
			r.updateDevexCols(aq, wq, enter, leaveCol)
			r.stats.Phase.PricingNanos += int64(time.Since(tW))
		}
		obj := r.boundedObjective(costs)
		if obj <= lastObj+eps {
			stall++
			if stall >= stallLimit {
				bland = true
			}
		} else {
			stall = 0
			bland = false
		}
		lastObj = obj
	}
	return Optimal, ErrIterationLimit
}

// dual runs the revised dual simplex: starting dual-feasible, it
// restores primal feasibility after an RHS or bound mutation. A basic
// column may violate either side of its box; the entering ratio test
// prices nonbasic columns on the matching side (at-lower columns
// with nonpositive, at-upper columns with nonnegative reduced costs)
// so dual feasibility is preserved. Returns Infeasible when the dual
// is unbounded (= the primal constraints admit no solution), Optimal
// when xb is feasible.
//
// The leaving row is chosen by exact dual steepest edge: among
// box-violating basics the one maximizing violation²/γ_i leaves, where
// γ_i = ‖eᵢᵀB⁻¹‖² is maintained by the Forrest–Goldfarb recurrence at
// one extra FTRAN per pivot. The entering column comes from the
// bound-flipping ratio test (dualEnterFlips). Bland's rule takes over
// both choices on stalls.
func (r *Revised) dual() (Status, error) {
	// The dual only ever runs as a warm restart, and a restart is
	// worth at most a few sweeps of the basis in pivots: past that the
	// old basis carries no useful information and the caller's cold
	// fallback — whose early pivots on a fresh all-singleton
	// factorization are far cheaper — wins. A budget proportional to
	// the instance (warmPivotBudget) turns the rare degenerate grind
	// into an ErrIterationLimit that SolveFrom converts into that
	// fallback.
	maxIters := r.warmPivotBudget()
	d, dj := r.d, r.dj
	bland := false
	stall := 0
	sinceBest := 0
	lastInfeas := math.Inf(1)
	minInfeas := math.Inf(1)
	// The path this solve's pivots took through the path cache: node is the
	// entry of the last pivot (-1 at the frozen state, -2 off the cache),
	// via the column it entered, depth the etas the path appended. It goes
	// on only through entries the cache served, so a deeper entry is filed
	// only under one this solve was served from.
	node, via, depth := int32(-2), int32(-1), 0
	// The simplex multipliers move by a multiple of the leaving row of
	// B^{-1} per dual pivot (y' = y + γ·ρ_r, γ = c̄_enter/d_leave), so the
	// reduced costs move by the same multiple of the pivot row this
	// iteration prices anyway (c̄_j' = c̄_j − γ·α_rj). The caller hands
	// over a valid dj (warmSolve's priceScan has just read it); it is
	// maintained along that row — no multiplier BTRAN, no dot per
	// candidate — and recomputed exactly whenever pivotUpdate
	// refactorizes.
	for iter := 0; iter < maxIters; iter++ {
		if r.anyInfeasible() {
			// chooseLeaving reads the weights, and once a row leaves, its
			// pivot rewrites ρ and d, which a pending update reads.
			r.settleDSE()
		}
		// Exact steepest-edge weights persist across warm solves as long as
		// only the dual itself has pivoted (the recurrence is exact), and a
		// basis install adopts the weights the basis carries; anything else
		// invalidated them, and they are computed exactly here before the
		// first leaving-row choice — and again after a settled update turned
		// one non-finite, on the factor of the basis they then describe. The
		// weights are state only while dseOK, so a Rewind that puts back a
		// frozen dseOK = false undoes an initialization without listing it.
		if !r.dseOK {
			r.initDSE()
		}
		if !r.eagerPivots && r.onFrozenFactor() {
			node, via, depth = -1, -1, 0
		}
		tPrice := time.Now()
		leave, below := r.chooseLeaving(bland, r.feasTol())
		r.stats.Phase.PricingNanos += int64(time.Since(tPrice))
		if leave == -1 {
			return Optimal, nil
		}
		viol := -r.xb[leave]
		if !below {
			viol = r.xb[leave] - r.U[r.basis[leave]]
		}
		// rho = e_leave·B^{-1}; pricing reads it sign-normalized and
		// oriented by amult, so eligible columns always price out
		// negative for at-lower and positive for at-upper candidates;
		// gr = ‖rho‖² is γ_r exactly, for the weight update below. A pivot
		// on the path reads ρ, and below the candidates and α, from the path
		// cache when an earlier solve's path left the same node by the same
		// row on the same side, and files them there otherwise. The path
		// holds while the eta file is the one it appended.
		amult := 1.0
		if !below {
			amult = -1
		}
		key := pathKey{parent: node, enter: via, row: int32(leave), below: below}
		fp, onPath := -1, node >= -1 && len(r.fac.etas) == depth
		if onPath {
			fp = r.paths.find(r.frozen.start, key)
		}
		hit := fp >= 0
		var gr float64
		if hit {
			tB := time.Now()
			e := &r.paths.ents[fp]
			r.rhoIdx, gr = r.paths.load(e.rho, r.rho, r.rhoIdx), e.gamma
			r.stats.Phase.BTRANNanos += int64(time.Since(tB))
		} else {
			gr = r.leavingRow(leave)
		}
		// Entering ratio test. This pass collects every eligible
		// column's breakpoint (ratio_j, |α_j|) into the dc* buffers;
		// dualEnterFlips then walks them in ratio order and enters the
		// largest |α| within dtol of its stop ratio. The dtol slack (the
		// tolerance the dual's entry test accepts) lets near-tied — typically
		// degenerate — breakpoints trade a ≤dtol reduced-cost violation
		// for a well-scaled pivot, which both stabilizes the eta file and
		// cuts the degenerate mini-steps that dominate restarts on
		// degenerate-heavy platforms. Under Bland's rule the strict
		// smallest-index min-ratio test is kept (its termination
		// argument needs it), decided inside the pass.
		tEnter := time.Now()
		enter := -1
		dtol := r.dualTol()
		bestRatio := math.Inf(1)
		nc := 0
		cJ, cAlpha, cRatio := r.dcJ[:0], r.dcAlpha[:0], r.dcRatio[:0]
		price := func(j int, alpha float64) { // j is nonbasic: neither arm passes a basic column
			if r.U[j] <= 0 {
				return
			}
			cbar := dj[j]
			if !r.atUpper[j] {
				if alpha >= -eps {
					return
				}
				if cbar > 0 {
					cbar = 0 // dual-feasibility roundoff slop
				}
			} else {
				if alpha <= eps {
					return
				}
				if cbar < 0 {
					cbar = 0 // dual-feasibility roundoff slop
				}
			}
			ratio := cbar / alpha
			a := alpha
			if a < 0 {
				a = -a
			}
			if bland {
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (enter == -1 || j < enter)) {
					bestRatio = ratio
					enter = j
				}
				return
			}
			cJ = append(cJ, int32(j))
			cAlpha = append(cAlpha, a)
			cRatio = append(cRatio, ratio)
			nc++
		}
		// Either arm leaves α_j in candAlpha for every nonbasic column it
		// visits, fixed ones included: the reduced-cost update below reads
		// it back.
		var cands []int32
		sparse := hit
		if sparse {
			cands = r.paths.cands(fp, r.candAlpha)
		} else if cands, sparse = r.dualCandidates(amult); onPath && sparse {
			fp = r.paths.file(key, gr, r.rhoIdx, r.rho, cands, r.candAlpha)
		}
		if sparse {
			// α was accumulated during the candidate row walk; the CSC
			// store is not touched again.
			for _, j32 := range cands {
				price(int(j32), r.candAlpha[j32])
			}
		} else {
			ws := r.signedRow(amult)
			for j := 0; j < r.artStart; j++ {
				if r.inBasis[j] {
					continue
				}
				r.candAlpha[j] = r.sp.dot(ws, j)
				price(j, r.candAlpha[j])
			}
		}
		if r.onPrice != nil {
			r.onPrice(amult, cands)
		}
		r.stats.Phase.PricingNanos += int64(time.Since(tEnter))
		tRatio := time.Now()
		if !bland {
			// Bound-flipping (long-step) test: walk the breakpoints in
			// ratio order, flipping boxed candidates whose passing keeps
			// the leaving row violating, and enter at the first
			// breakpoint that would restore it.
			r.dcJ, r.dcAlpha, r.dcRatio = cJ, cAlpha, cRatio
			enter = r.dualEnterFlips(nc, viol, dtol)
		}
		r.stats.Phase.RatioTestNanos += int64(time.Since(tRatio))
		if enter == -1 {
			return Infeasible, nil
		}
		r.direction(enter)
		target := 0.0
		if !below {
			target = r.U[r.basis[leave]]
		}
		step := (r.xb[leave] - target) / d[leave]
		// The steepest-edge update of this pivot waits for the first
		// reader of the weights (settleDSE): the last pivot of a what-if
		// is usually rewound before anything reads them.
		r.pend = dsePending{on: true, leave: leave, gamma: gr, etas: len(r.fac.etas), fp: fp}
		if r.eagerPivots {
			r.applyDSE()
		}
		leaveCol := r.basis[leave]
		refac := r.pivotUpdate(leave, enter, step, !below)
		r.stats.DualPivots++
		node, via, depth = -2, int32(enter), depth+1
		if hit {
			node = int32(fp)
		}
		if refac {
			// pivotUpdate hit a refactorization checkpoint: the
			// factorization was rebuilt, so refresh the reduced costs
			// exactly too.
			r.computeDJ()
		} else {
			// Reduced-cost update along the pre-pivot pivot row (candAlpha
			// carries amult). Columns that stay basic keep their exact 0;
			// the two that traded places are set outright — the raw,
			// unclamped c̄_enter is what makes dj[enter] = 0 exact.
			tD := time.Now()
			gamma := dj[enter] / d[leave]
			if g := gamma * amult; g != 0 {
				if sparse {
					// The candidates were nonbasic before the pivot; of them
					// only enter is basic now, and it is set below.
					for _, j32 := range cands {
						dj[j32] -= g * r.candAlpha[j32]
					}
				} else {
					for j := 0; j < r.artStart; j++ {
						if !r.inBasis[j] {
							dj[j] -= g * r.candAlpha[j]
						}
					}
				}
			}
			dj[enter] = 0
			if leaveCol < r.artStart { // artificials are never priced
				dj[leaveCol] = -gamma
			}
			r.stats.Phase.PricingNanos += int64(time.Since(tD))
		}
		infeas := r.infeasibility()
		if infeas >= lastInfeas-eps {
			stall++
			if stall >= stallLimit {
				bland = true
			}
			// A restart that cannot push total infeasibility to a new
			// low across several Bland episodes is degenerate-cycling
			// territory; past that point the cold fallback's fresh
			// phase-1/phase-2 start tends to win. The window is wide
			// because a factorized dual pivot costs about the same as
			// a cold-solve pivot, so persisting beats abandoning up to
			// a few cold-solve equivalents of work.
			if infeas >= minInfeas-eps {
				sinceBest++
				if sinceBest >= 8*stallLimit {
					return Optimal, ErrIterationLimit
				}
			}
		} else {
			stall = 0
			bland = false
		}
		if infeas < minInfeas-eps {
			minInfeas = infeas
			sinceBest = 0
		}
		lastInfeas = infeas
	}
	return Optimal, ErrIterationLimit
}

// dseFloor is the positive floor for exact steepest-edge weights: the
// recurrence computes ‖e_iᵀB⁻¹‖² ≥ 0 exactly, so anything at or below
// zero is roundoff and is clamped rather than allowed to blow up a
// later violation²/γ score.
const dseFloor = 1e-10

// initDSE sets every steepest-edge weight exactly, γ_i = ‖e_iᵀB⁻¹‖², on
// the live factor and its eta file. Unit weights are exact only for a
// slack basis, so this replaces them wherever the weights reset. It reads
// B⁻¹ column by column instead of row by row: column k, B⁻¹e_k, is one
// sparse FTRAN of a unit vector that touches only what e_k reaches, and
// adds (B⁻¹)_ik² to γ_i at each of its nonzeros — where m BTRANs of ρ_i
// would each sweep from their first position on (DESIGN.md "Pivot path:
// what a dual pivot touches" gives both costs). τ is its scratch: no
// update is pending at a reset, and every user of τ solves it afresh.
func (r *Revised) initDSE() {
	t0 := time.Now()
	r.tauIdx = r.exactWeights(r.dseW, r.tau, r.tauIdx)
	r.stats.Phase.FTRANNanos += int64(time.Since(t0))
	r.dseOK = true
	r.stats.DSEWeightResets++
}

// exactWeights writes ‖e_iᵀB⁻¹‖² for every row into w, floored at
// dseFloor, solving each column of B⁻¹ into x, which is zero outside its
// nonzero list idx, and returns the list of the last column.
func (r *Revised) exactWeights(w, x []float64, idx []int32) []int32 {
	clear(w)
	for k := 0; k < r.m; k++ {
		r.fac.add(k, 1)
		idx = r.fac.solve(x, idx)
		for _, i := range idx {
			w[i] += x[i] * x[i]
		}
	}
	for i, g := range w {
		if g < dseFloor {
			w[i] = dseFloor
		}
	}
	return idx
}

// dsePending is a dual pivot's steepest-edge update, deferred: the
// leaving row, its exact weight ‖ρ_r‖², the eta-file length before the
// pivot and the path-cache entry the pivot was served from or filed in
// (-1: none). ρ and its list, d and its list stay as the pivot left them
// until the update is settled: nothing rewrites them before the next
// settle point.
type dsePending struct {
	on          bool
	leave, etas int
	gamma       float64
	fp          int
}

// settleDSE applies the pending steepest-edge update, if any. It runs
// before every reader of the weights and before anything that would
// change what the update reads: the dual's leaving-row choice over a
// non-empty infeasibility set (whose pivot then rewrites ρ and d), the
// primal's entering direction (which rewrites d), every refactorization
// (which replaces the factor τ is solved on), Freeze and so Refork, and
// Basis, which carries the weights. Rewind drops the update instead — it
// puts back every row the update would write — and so do Rebase, basis
// installs and cold solves, which reset the weights.
func (r *Revised) settleDSE() {
	applied := r.pend.on
	if applied {
		r.applyDSE()
	}
	if r.onSettle != nil {
		r.onSettle(applied)
	}
}

// applyDSE is the Forrest–Goldfarb exact steepest-edge update of the
// pending pivot, against its pre-pivot basis: γ_r was recomputed exactly as
// ‖ρ_r‖² (the stored weight served pricing only, so the recurrence
// self-corrects), τ = B⁻¹ρ_r costs the one extra FTRAN this pricing scheme
// is known for, and then
//
//	γ_i ← γ_i − 2(d_i/d_r)·τ_i + (d_i/d_r)²·γ_r   (i ≠ r)
//	γ_r ← γ_r/d_r²
//
// is the exact new ‖e_iᵀB⁻¹‖² for every row — and the old one wherever
// d_i = 0, so the update walks d's list. τ is solved on the factor as it
// stood before the pivot — the eta file at its pre-pivot length — or read
// from the path cache, which files it after its first solve.
func (r *Revised) applyDSE() {
	pd := &r.pend
	pd.on = false
	d, tau, leave, gr := r.d, r.tau, pd.leave, pd.gamma
	tF := time.Now()
	if pc := &r.paths; pd.fp >= 0 && pc.ents[pd.fp].tauOK {
		r.tauIdx = pc.load(pc.ents[pd.fp].tau, tau, r.tauIdx)
	} else {
		r.tauIdx = r.fac.ftranRowsAt(pd.etas, r.rhoIdx, r.rho, tau, r.tauIdx)
		if pd.fp >= 0 {
			pc.fileTau(pd.fp, r.tauIdx, tau)
		}
	}
	r.stats.Phase.FTRANNanos += int64(time.Since(tF))
	dr := d[leave]
	finite := true
	for _, i32 := range r.dIdx {
		i := int(i32)
		if i == leave {
			continue
		}
		q := d[i] / dr
		g := r.dseW[i] - 2*q*tau[i] + q*q*gr
		if g < dseFloor {
			g = dseFloor // exact value is ‖ρ_i − q·ρ_r‖² ≥ 0: roundoff
		}
		if math.IsNaN(g) || math.IsInf(g, 0) {
			finite = false
			break
		}
		r.dseW[i] = g
	}
	gl := gr / (dr * dr)
	if gl < dseFloor {
		gl = dseFloor
	}
	r.dseW[leave] = gl
	if !finite || math.IsNaN(gl) || math.IsInf(gl, 0) {
		// The next reader computes them exactly (the dual's loop, Freeze),
		// on the factor of the basis they describe: a refactorization
		// settles before it replaces the factor, which may not yet hold
		// this pivot.
		r.dseOK = false
		r.wholeMoved()
	}
}

// anyInfeasible reports whether the infeasibility set is non-empty.
func (r *Revised) anyInfeasible() bool {
	for _, word := range r.infeas {
		if word != 0 {
			return true
		}
	}
	return false
}

// chooseLeaving picks the dual's leaving row among the rows of the
// infeasibility set, in ascending order: under Bland's rule the
// violating row whose basic column has the smallest index (row order is
// not a valid anti-cycling order), otherwise the one maximizing
// violation²/γ_i. below reports a violation of the lower bound. A row
// outside the set violates neither bound, so the dense loops over all m
// rows this replaced skipped it, and the choice is theirs.
func (r *Revised) chooseLeaving(bland bool, ftol float64) (leave int, below bool) {
	leave = -1
	bestScore := 0.0
	for w, word := range r.infeas {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			u := r.U[r.basis[i]]
			if bland {
				isBelow := r.xb[i] < -ftol
				above := !math.IsInf(u, 1) && r.xb[i] > u+ftol
				if (isBelow || above) && (leave == -1 || r.basis[i] < r.basis[leave]) {
					leave, below = i, isBelow
				}
				continue
			}
			v := -r.xb[i]
			isBelow := true
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
	}
	return leave, below
}

// infeasibility sums the basic values' distances outside their boxes
// over the infeasibility set in ascending row order — the terms, and the
// order, of the dense sum over all m rows, whose other rows add nothing.
// It feeds the dual's stall → Bland switch.
func (r *Revised) infeasibility() float64 {
	sum := 0.0
	for w, word := range r.infeas {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if r.xb[i] < 0 {
				sum -= r.xb[i]
			} else if u := r.U[r.basis[i]]; !math.IsInf(u, 1) && r.xb[i] > u {
				sum += r.xb[i] - u
			}
		}
	}
	return sum
}

// priceScan reports, in one pass over the reduced costs, whether some
// nonbasic non-artificial column's reduced cost sits on the wrong side
// for its bound — positive at a lower bound, negative at an upper bound
// — by more than wide, and whether by more than narrow (narrow ≤ wide).
// Fixed (U = 0) columns cannot move and are exempt. With wide = dualTol
// the first answer is the dual's entry test (the basis is not dual
// feasible); with narrow = eps the second is the primal's own entering
// test, the safety net after the dual.
//
// Every column over wide is over narrow, so none comes before the first
// column over narrow: the pass tests narrow up to that column and only
// wide from it on.
func (r *Revised) priceScan(wide, narrow float64) (overWide, overNarrow bool) {
	t0 := time.Now()
	j := 0
	for ; j < len(r.dj); j++ {
		if r.outBy(j, narrow) {
			overNarrow = true
			break
		}
	}
	for ; j < len(r.dj); j++ {
		if r.outBy(j, wide) {
			overWide = true
			break
		}
	}
	r.stats.Phase.PricingNanos += int64(time.Since(t0))
	return overWide, overNarrow
}

// outBy reports whether column j's reduced cost sits on the wrong side
// for its bound by more than tol (see priceScan).
func (r *Revised) outBy(j int, tol float64) bool {
	cbar := r.dj[j]
	return (cbar > tol && !r.atUpper[j] || cbar < -tol && r.atUpper[j]) && !r.inBasis[j] && r.U[j] > 0
}
