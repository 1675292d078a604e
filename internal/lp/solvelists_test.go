package lp

import (
	"math"
	"math/rand"
	"testing"
)

// listChecker audits the index lists the sparse-entry solves hand back
// (the contract on Revised.dIdx) and holds those solves float for float to
// the general ones. It counts what it saw so the test can show the edge
// cases were reached.
type listChecker struct {
	t   *testing.T
	rng *rand.Rand
	all []*Revised

	audits, solves   int
	etasSeen         [luMaxEtas]bool
	etaFill, negZero int // positions only the eta file filled; −0 entries left unlisted
	x, y, ws         []float64
	idx              []int32
}

// sameFloat is float equality that also equates NaN with NaN. It is
// bit-equality except between +0 and −0: a Uᵀ sweep that starts late
// leaves +0 where the full sweep computes 0/u = −0 under a negative
// pivot, and nothing can tell them apart — every consumer tests != 0 or
// multiplies.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// listed fails unless idx is exactly the ascending positions of v's
// nonzeros.
func (c *listChecker) listed(name, where string, v []float64, idx []int32) {
	c.t.Helper()
	n := 0
	for i, x := range v {
		if x == 0 {
			if math.Signbit(x) {
				c.negZero++
			}
			continue
		}
		if n >= len(idx) || int(idx[n]) != i {
			c.t.Fatalf("%s: %s[%d] = %g is not entry %d of its list %v", where, name, i, x, n, idx)
		}
		n++
	}
	if n != len(idx) {
		c.t.Fatalf("%s: %s has %d nonzeros, its list %d entries: %v", where, name, n, len(idx), idx)
	}
}

// attach makes r's every pivot and bound flip an audit.
func (c *listChecker) attach(r *Revised) {
	c.all = append(c.all, r)
	r.onPivot = func() {
		c.audits++
		c.listed("d", "pivot", r.d, r.dIdx)
		c.listed("rho", "pivot", r.rho, r.rhoIdx)
		for i, x := range r.rho {
			if math.Abs(r.ws[i]) != math.Abs(x) {
				c.t.Fatalf("pivot: ws[%d] = %g beside rho[%d] = %g", i, r.ws[i], i, x)
			}
		}
		c.check(r, "pivot")
	}
}

// check holds, on r's factor as it stands, ftranCol(j) to ftran of the
// scattered column, ftranRows to ftran of the few-row vector and
// btranRow(p) to btran of the unit vector — for a few columns and row
// sets, and for the positions eliminated first and last plus a few more —
// with each result's list, ws and ‖ρ‖² checked against the vector.
func (c *listChecker) check(r *Revised, where string) {
	c.t.Helper()
	f := r.fac
	if f.rowOfPos == nil {
		return // never factorized
	}
	m := r.m
	for k := 0; k < m; k++ {
		if int(f.posOfRow[f.rowOfPos[k]]) != k || int(f.posOfCol[f.colOfPos[k]]) != k {
			c.t.Fatalf("%s: the inverse permutations are not the live factor's at position %d", where, k)
		}
	}
	if len(c.x) < m {
		c.x, c.y, c.ws, c.idx = make([]float64, m), make([]float64, m), make([]float64, m), make([]int32, 0, m)
	}
	x, y, ws := c.x[:m], c.y[:m], c.ws[:m]
	c.etasSeen[len(f.etas)] = true
	for n := 0; n < 4; n++ {
		j := c.rng.Intn(r.ncols)
		idx := f.ftranCol(j, x, c.idx[:0])
		c.listed("ftranCol", where, x, idx)
		clear(y)
		r.effCol(j, func(i int, v float64) { y[i] += v })
		f.ftran(y, y)
		for i := range x {
			if !sameFloat(x[i], y[i]) {
				c.t.Fatalf("%s: ftranCol(%d)[%d] = %v, ftran of the column %v (%d etas)", where, j, i, x[i], y[i], len(f.etas))
			}
		}
		// What the eta file alone filled: the reason the list is built last.
		etas := f.etas
		f.etas = nil
		f.ftranCol(j, y, c.idx[:0])
		f.etas = etas
		for i := range x {
			if y[i] == 0 && x[i] != 0 {
				c.etaFill++
			}
		}
		c.solves++
	}
	// ftranRows of a right-hand side on a few rows — with the rows
	// eliminated first and last among them — against ftran of the vector.
	for _, ends := range [][]int32{{f.rowOfPos[0]}, {f.rowOfPos[m-1]}, nil} {
		clear(y)
		rows := ends
		for n := 0; n < 3; n++ {
			if i := c.rng.Intn(m); y[i] == 0 && (len(ends) == 0 || int32(i) != ends[0]) {
				rows = append(rows, int32(i))
			}
		}
		for _, i := range rows {
			y[i] = c.rng.NormFloat64()
		}
		idx := f.ftranRows(rows, y, x, c.idx[:0])
		c.listed("ftranRows", where, x, idx)
		f.ftran(y, y)
		for i := range x {
			if !sameFloat(x[i], y[i]) {
				c.t.Fatalf("%s: ftranRows(%v)[%d] = %v, ftran of the vector %v (%d etas)", where, rows, i, x[i], y[i], len(f.etas))
			}
		}
		c.solves++
	}
	for n, p := range []int{int(f.colOfPos[0]), int(f.colOfPos[m-1]), c.rng.Intn(m), c.rng.Intn(m)} {
		amult := float64(1 - 2*(n%2))
		idx, gamma := f.btranRow(p, amult, x, ws, c.idx[:0])
		c.listed("btranRow", where, x, idx)
		clear(y)
		y[p] = 1
		f.btran(y)
		sum := 0.0
		for i := range x {
			if !sameFloat(x[i], y[i]) {
				c.t.Fatalf("%s: btranRow(%d)[%d] = %v, btran of the unit vector %v (%d etas)", where, p, i, x[i], y[i], len(f.etas))
			}
			if want := amult * y[i] * r.sign[i]; !sameFloat(ws[i], want) {
				c.t.Fatalf("%s: btranRow(%d, %g) ws[%d] = %v, want %v", where, p, amult, i, ws[i], want)
			}
			sum += y[i] * y[i]
		}
		if !sameFloat(gamma, sum) {
			c.t.Fatalf("%s: btranRow(%d) returned ‖ρ‖² = %v, the dense sum is %v", where, p, gamma, sum)
		}
		c.solves++
	}
}

// TestSolveListsMatchDense: through basisSchedule — cold solves, so primal
// and driveOutArtificials pivot under it too, continued solves,
// Freeze…Rewind rounds across an in-dual refactorization, an Infeasible
// verdict, a fork and a fork of it — before every pivot and primal bound
// flip d's and ρ's lists are exactly the ascending nonzero positions of
// their vectors, and there, right after every Rewind and on a fork that
// still aliases its parent's frozen arrays, the sparse-entry solves —
// FTRAN of a column, of a few-row rhs (a start from the frozen state's),
// BTRAN of a unit vector — list their nonzeros exactly and equal the
// general ones float for float, with an empty eta file, one eta and a
// full one. No clock is read.
func TestSolveListsMatchDense(t *testing.T) {
	c := &listChecker{t: t, rng: rand.New(rand.NewSource(24))}
	basisSchedule(t, &djChecker{t: t, also: c.check}, c.attach)

	var st Stats
	for _, r := range c.all {
		st.Add(r.stats)
	}
	repair := st.Pivots - st.PrimalPivots - st.DualPivots
	t.Logf("%d audits (%d primal, %d dual, %d repair pivots, %d flips), %d solve pairs, %d eta-only fills, %d unlisted −0",
		c.audits, st.PrimalPivots, st.DualPivots, repair, st.BoundFlips, c.solves, c.etaFill, c.negZero)
	if st.PrimalPivots == 0 || st.DualPivots < 500 || repair == 0 || c.audits < st.Pivots ||
		!c.etasSeen[0] || !c.etasSeen[1] || c.etaFill == 0 || c.negZero == 0 {
		t.Fatalf("the schedule reached too little: eta-file lengths seen %v", c.etasSeen)
	}

	// The longest eta file a solve can run on: one update short of the
	// length that forces a refactorization. The density budget usually
	// rebuilds sooner, so append the etas by hand.
	r := NewRevised(whatIfLP(rand.New(rand.NewSource(5)), 120, 80))
	if sol, err := r.SolveFrom(nil); err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	for try := 0; len(r.fac.etas) < luMaxEtas-1; try++ {
		if try == 10000 {
			t.Fatalf("only %d etas after %d tries", len(r.fac.etas), try)
		}
		enter, leave := c.rng.Intn(r.artStart), c.rng.Intn(r.m)
		if r.inBasis[enter] {
			continue
		}
		r.direction(enter)
		if math.Abs(r.d[leave]) < 1e-6 || !r.fac.update(leave, r.d, r.dIdx, false) {
			continue
		}
		r.inBasis[r.basis[leave]], r.inBasis[enter] = false, true
		r.basis[leave] = enter
		c.check(r, "hand-made eta file")
	}
	if !c.etasSeen[luMaxEtas-1] {
		t.Fatal("no solve ran on a full eta file")
	}

	// A value that cancels to exact 0 is not listed, whatever the pattern
	// promised: with B = [A_0 A_1] = [[1 0] [1 1]], B⁻¹·(1, 1)ᵀ = (1, 1 − 1).
	p := New(3)
	p.AddConstraint([]Term{{Var: 0, Coeff: 1}, {Var: 2, Coeff: 1}}, LE, 4)
	p.AddConstraint([]Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}, {Var: 2, Coeff: 1}}, LE, 6)
	r = NewRevised(p)
	if _, err := r.SolveFrom(nil); err != nil {
		t.Fatal(err)
	}
	r.setBasis([]int{0, 1})
	if !r.refactorize() {
		t.Fatal("the 2×2 basis is singular")
	}
	r.direction(2)
	if r.d[0] != 1 || r.d[1] != 0 || len(r.dIdx) != 1 || r.dIdx[0] != 0 {
		t.Fatalf("d = %v listed %v, want [1 0] listed [0]", r.d, r.dIdx)
	}
}
