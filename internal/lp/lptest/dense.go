// Package lptest holds the independent reference LP solver the test
// suites check the production revised simplex (lp.Revised) against: a
// two-phase primal simplex on a dense tableau that shares no code with
// it. It is test support — tests call DenseSolver{}.Solve on the
// Problem they hand lp.Revised — and must not be imported by non-test
// code.
package lptest

import (
	"errors"
	"math"

	"repro/internal/lp"
)

// DenseSolver solves with the dense two-phase tableau simplex. It
// densifies the constraint rows and rebuilds the tableau from scratch
// on every call.
type DenseSolver struct{}

// Solve solves p from scratch; p is only read.
func (DenseSolver) Solve(p *lp.Problem) (lp.Solution, error) { return solveDense(p) }

const (
	eps = 1e-9 // pivot/feasibility tolerance
	// stallLimit is the number of consecutive non-improving pivots
	// tolerated under Dantzig pricing before switching to Bland's
	// rule, which guarantees termination.
	stallLimit = 64
)

// solveDense runs the two-phase dense-tableau simplex. It honors
// variable bounds with the same bounded-variable semantics as the
// revised simplex: lower bounds are shifted away when the tableau is
// built, nonbasic columns rest at either bound, the ratio test is
// two-sided and an entering column blocked first by its own opposite
// bound flips without a pivot.
func solveDense(p *lp.Problem) (lp.Solution, error) {
	t := newTableau(p)
	if t.nart > 0 {
		if err := t.phase1(); err != nil {
			return lp.Solution{}, err
		}
		if t.phase1Objective() > 1e-7*(1+t.rhsScale) {
			return lp.Solution{Status: lp.Infeasible}, nil
		}
		t.driveOutArtificials()
	}
	status, err := t.phase2()
	if err != nil {
		return lp.Solution{}, err
	}
	if status != lp.Optimal {
		return lp.Solution{Status: status}, nil
	}
	x := t.extract()
	obj := 0.0
	for j := range x {
		obj += p.Objective(j) * x[j]
	}
	return lp.Solution{Status: lp.Optimal, X: x, Objective: obj}, nil
}

// tableau is the dense simplex tableau, kept canonical over the
// lower-bound-shifted program: every structural variable ranges over
// [0, U_j] with U_j = ub_j - lb_j, slack and artificial columns over
// [0, +Inf). b holds the values of the basic variables given every
// nonbasic column resting at its current bound (atUpper tracks
// which).
//
// Layout: columns 0..nvars-1 are structural variables, then nslack
// slack/surplus columns, then nart artificial columns. a has m rows of
// length ncols; basis[i] is the column basic in row i.
type tableau struct {
	m, nvars, nslack, nart int
	ncols                  int
	a                      [][]float64
	b                      []float64
	basis                  []int
	costs                  []float64 // phase-2 objective over all columns
	rhsScale               float64   // max |shifted b_i|, for relative feasibility tolerance
	lb                     []float64 // structural lower bounds (extraction shift)
	U                      []float64 // shifted bound range per column
	atUpper                []bool    // nonbasic-at-upper-bound status per column
}

func newTableau(p *lp.Problem) *tableau {
	m, nvars := p.NumConstraints(), p.NumVars()
	t := &tableau{m: m, nvars: nvars}
	t.lb = make([]float64, nvars)
	ub := make([]float64, nvars)
	for j := range t.lb {
		t.lb[j], ub[j] = p.VarBounds(j)
	}
	// Shift the lower bounds out of the rhs, then normalize rows to
	// have nonnegative shifted rhs (negating flips the relation).
	// Count slack and artificial columns off the normalized rows.
	terms := make([][]lp.Term, m)
	rels := make([]lp.Rel, m)
	rhs := make([]float64, m)
	neg := make([]bool, m)
	for i := range terms {
		terms[i], rels[i], rhs[i] = p.Constraint(i)
		for _, term := range terms[i] {
			if lb := t.lb[term.Var]; lb != 0 {
				rhs[i] -= term.Coeff * lb
			}
		}
		if rhs[i] < 0 {
			rhs[i] = -rhs[i]
			neg[i] = true
			switch rels[i] {
			case lp.LE:
				rels[i] = lp.GE
			case lp.GE:
				rels[i] = lp.LE
			}
		}
		switch rels[i] {
		case lp.LE, lp.GE:
			t.nslack++
		}
		switch rels[i] {
		case lp.GE, lp.EQ:
			t.nart++
		}
	}
	t.ncols = nvars + t.nslack + t.nart
	t.a = make([][]float64, m)
	t.b = make([]float64, m)
	t.basis = make([]int, m)
	t.U = make([]float64, t.ncols)
	for j := range t.U {
		if j < nvars {
			t.U[j] = ub[j] - t.lb[j]
		} else {
			t.U[j] = math.Inf(1)
		}
	}
	t.atUpper = make([]bool, t.ncols)
	slackAt := nvars
	artAt := nvars + t.nslack
	for i := range terms {
		rowv := make([]float64, t.ncols)
		sign := 1.0
		if neg[i] {
			sign = -1
		}
		for _, term := range terms[i] {
			rowv[term.Var] += sign * term.Coeff
		}
		t.b[i] = rhs[i]
		if t.b[i] > t.rhsScale {
			t.rhsScale = t.b[i]
		}
		switch rels[i] {
		case lp.LE:
			rowv[slackAt] = 1
			t.basis[i] = slackAt
			slackAt++
		case lp.GE:
			rowv[slackAt] = -1
			slackAt++
			rowv[artAt] = 1
			t.basis[i] = artAt
			artAt++
		case lp.EQ:
			rowv[artAt] = 1
			t.basis[i] = artAt
			artAt++
		}
		t.a[i] = rowv
	}
	t.costs = make([]float64, t.ncols)
	for j := 0; j < nvars; j++ {
		t.costs[j] = p.Objective(j)
	}
	return t
}

// reducedCosts computes cbar_j = c_j - c_B · B^{-1} A_j for the given
// cost vector, exploiting that the tableau is kept in canonical form
// (basic columns are unit vectors).
func (t *tableau) reducedCosts(costs []float64) []float64 {
	cbar := make([]float64, t.ncols)
	copy(cbar, costs)
	for i, bj := range t.basis {
		cb := costs[bj]
		if cb == 0 {
			continue
		}
		rowi := t.a[i]
		for j := 0; j < t.ncols; j++ {
			cbar[j] -= cb * rowi[j]
		}
	}
	return cbar
}

// nonbasicValue returns the shifted-space value a nonbasic column
// currently rests at.
func (t *tableau) nonbasicValue(j int) float64 {
	if t.atUpper[j] {
		return t.U[j]
	}
	return 0
}

// clampB absorbs roundoff residue just outside a basic variable's box
// back onto the violated bound.
func (t *tableau) clampB(i int) {
	ftol := eps * (1 + t.rhsScale)
	if t.b[i] < 0 {
		if t.b[i] > -ftol {
			t.b[i] = 0
		}
		return
	}
	if u := t.U[t.basis[i]]; !math.IsInf(u, 1) && t.b[i] > u && t.b[i]-u < ftol {
		t.b[i] = u
	}
}

// pivot performs a Gauss-Jordan pivot on (prow, pcol) with the
// entering variable moving by step (in shifted space, signed) from
// its current bound value, and updates the basis; hitUpper records
// the bound the leaving variable departs at.
func (t *tableau) pivot(prow, pcol int, step float64, hitUpper bool) {
	leaveCol := t.basis[prow]
	newVal := t.nonbasicValue(pcol) + step
	piv := t.a[prow][pcol]
	inv := 1.0 / piv
	rowp := t.a[prow]
	for j := 0; j < t.ncols; j++ {
		rowp[j] *= inv
	}
	rowp[pcol] = 1 // kill roundoff
	for i := 0; i < t.m; i++ {
		if i == prow {
			continue
		}
		f := t.a[i][pcol]
		if f == 0 {
			continue
		}
		rowi := t.a[i]
		for j := 0; j < t.ncols; j++ {
			rowi[j] -= f * rowp[j]
		}
		rowi[pcol] = 0
		t.b[i] -= step * f
		t.clampB(i)
	}
	t.atUpper[leaveCol] = hitUpper && t.U[leaveCol] > 0 && !math.IsInf(t.U[leaveCol], 1)
	t.basis[prow] = pcol
	t.atUpper[pcol] = false
	t.b[prow] = newVal
}

// boundFlip moves nonbasic column pcol across its box to the opposite
// bound — the pivot-free move of the bounded-variable simplex.
func (t *tableau) boundFlip(pcol int, dir float64) {
	step := dir * t.U[pcol]
	for i := 0; i < t.m; i++ {
		if f := t.a[i][pcol]; f != 0 {
			t.b[i] -= step * f
			t.clampB(i)
		}
	}
	t.atUpper[pcol] = !t.atUpper[pcol]
}

// ratioTest picks the leaving row for entering column pcol traveled
// in direction dir, returning -1 when no basic column blocks. The
// test is two-sided: a basic column blocks at its lower bound
// (delta > 0) or its finite upper bound (delta < 0); hitUpper
// records which. Ties are broken by smallest basis index (a
// Bland-compatible rule that also fights cycling under Dantzig
// pricing).
func (t *tableau) ratioTest(pcol int, dir float64) (prow int, hitUpper bool, ratio float64) {
	best := -1
	bestUpper := false
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		delta := dir * t.a[i][pcol]
		var r float64
		var upper bool
		switch {
		case delta > eps:
			r = t.b[i] / delta
			if r < 0 {
				r = 0
			}
		case delta < -eps:
			u := t.U[t.basis[i]]
			if math.IsInf(u, 1) {
				continue
			}
			r = (u - t.b[i]) / -delta
			if r < 0 {
				r = 0
			}
			upper = true
		default:
			continue
		}
		if r < bestRatio-eps || (r < bestRatio+eps && (best == -1 || t.basis[i] < t.basis[best])) {
			bestRatio = r
			best = i
			bestUpper = upper
		}
	}
	return best, bestUpper, bestRatio
}

// optimize runs the bounded primal simplex loop with the supplied
// cost vector over columns [0, colLimit): a nonbasic column at its
// lower bound enters increasing on a positive reduced cost, one at
// its upper bound enters decreasing on a negative reduced cost. It
// returns Unbounded or Optimal.
func (t *tableau) optimize(costs []float64, colLimit int) (lp.Status, error) {
	maxIters := 200*(t.m+t.ncols) + 20000
	bland := false
	stall := 0
	lastObj := math.Inf(-1)
	for iter := 0; iter < maxIters; iter++ {
		cbar := t.reducedCosts(costs)
		pcol := -1
		dir := 1.0
		// Basic columns price out at exactly zero (the tableau is kept
		// canonical), so they are never eligible on either side.
		if bland {
			for j := 0; j < colLimit; j++ {
				if t.U[j] <= 0 {
					continue
				}
				if !t.atUpper[j] && cbar[j] > eps {
					pcol, dir = j, 1
					break
				}
				if t.atUpper[j] && cbar[j] < -eps {
					pcol, dir = j, -1
					break
				}
			}
		} else {
			best := eps
			for j := 0; j < colLimit; j++ {
				if t.U[j] <= 0 {
					continue
				}
				c := cbar[j]
				if t.atUpper[j] {
					c = -c
				}
				if c > best {
					best = c
					pcol = j
					if t.atUpper[j] {
						dir = -1
					} else {
						dir = 1
					}
				}
			}
		}
		if pcol == -1 {
			return lp.Optimal, nil
		}
		prow, hitUpper, ratio := t.ratioTest(pcol, dir)
		switch {
		case prow == -1 && math.IsInf(t.U[pcol], 1):
			return lp.Unbounded, nil
		case prow == -1 || t.U[pcol] <= ratio:
			t.boundFlip(pcol, dir)
		default:
			t.pivot(prow, pcol, dir*ratio, hitUpper)
		}
		obj := t.boundedObjective(costs)
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
	return lp.Optimal, lp.ErrIterationLimit
}

// boundedObjective evaluates costs over the full bounded state: basic
// values plus the nonbasic columns resting at upper bounds (stall
// detection only, so the lower-bound shift constant is irrelevant).
func (t *tableau) boundedObjective(costs []float64) float64 {
	obj := 0.0
	for i, bj := range t.basis {
		obj += costs[bj] * t.b[i]
	}
	for j := 0; j < t.ncols; j++ {
		if t.atUpper[j] && costs[j] != 0 {
			obj += costs[j] * t.U[j]
		}
	}
	return obj
}

// phase1 minimizes the sum of artificial variables (maximizes its
// negation).
func (t *tableau) phase1() error {
	costs := make([]float64, t.ncols)
	for j := t.nvars + t.nslack; j < t.ncols; j++ {
		costs[j] = -1
	}
	status, err := t.optimize(costs, t.ncols)
	if err != nil {
		return err
	}
	if status == lp.Unbounded {
		// Impossible: phase-1 objective is bounded above by 0.
		return errors.New("lptest: internal error: phase 1 unbounded")
	}
	return nil
}

func (t *tableau) phase1Objective() float64 {
	sum := 0.0
	for i, bj := range t.basis {
		if bj >= t.nvars+t.nslack {
			sum += t.b[i]
		}
	}
	return sum
}

// driveOutArtificials pivots any artificial variable that remains
// basic (at value zero) out of the basis, or marks its row redundant
// by zeroing it when no pivot column exists. The pivot is degenerate
// — the entering column stays at its current bound value.
func (t *tableau) driveOutArtificials() {
	artStart := t.nvars + t.nslack
	for i := 0; i < t.m; i++ {
		if t.basis[i] < artStart {
			continue
		}
		pcol := -1
		for j := 0; j < artStart; j++ {
			if math.Abs(t.a[i][j]) > eps {
				pcol = j
				break
			}
		}
		if pcol == -1 {
			// Redundant row: the artificial stays basic at value 0 and
			// can never re-enter phase-2 play because phase 2 prices
			// only non-artificial columns.
			continue
		}
		t.pivot(i, pcol, t.b[i]/t.a[i][pcol], false)
	}
}

// phase2 optimizes the true objective over non-artificial columns.
func (t *tableau) phase2() (lp.Status, error) {
	return t.optimize(t.costs, t.nvars+t.nslack)
}

// extract reads the structural variable values off the bounded state,
// undoing the lower-bound shift.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.nvars)
	for j := 0; j < t.nvars; j++ {
		v := 0.0
		if t.atUpper[j] {
			v = t.U[j]
		}
		x[j] = t.lb[j] + v
	}
	for i, bj := range t.basis {
		if bj < t.nvars {
			v := t.b[i]
			if v < 0 {
				v = 0 // tolerance clamp
			}
			if u := t.U[bj]; !math.IsInf(u, 1) && v > u {
				v = u
			}
			x[bj] = t.lb[bj] + v
		}
	}
	return x
}
