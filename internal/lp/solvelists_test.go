package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// listChecker audits the index lists the sparse-entry solves hand back
// (the contract on Revised.dIdx), holds those solves float for float to
// the general ones, and holds every dual pricing pass's candidate list and
// α to the dense pivot row. It counts what it saw so the test can show the
// edge cases were reached.
type listChecker struct {
	t   *testing.T
	rng *rand.Rand
	all []*Revised

	audits, solves   int
	priced, scatters int // dual pricing passes audited; those the scatter priced
	etasSeen         [luMaxEtas]bool
	etaFill, negZero int // positions only the eta file filled; −0 entries left unlisted
	weights, etaW    int // exact steepest-edge weight sets checked; those on an eta file
	x, y, z, w, acc  []float64
	xIdx, idx        []int32
	inRow            []bool
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

// attach makes r's every pivot and bound flip, and every dual pricing
// pass, an audit.
func (c *listChecker) attach(r *Revised) {
	c.all = append(c.all, r)
	r.onPivot = func() {
		c.audits++
		c.listed("d", "pivot", r.d, r.dIdx)
		c.listed("rho", "pivot", r.rho, r.rhoIdx)
		c.check(r, "pivot")
	}
	r.onPrice = func(amult float64, cands []int32) { c.price(r, amult, cands) }
}

// price holds one dual pricing pass to the dense pivot row: every
// nonbasic non-artificial column's α_j is amult·ρ·sign·A_j summed down the
// stored column, float for float. The scatter (cands non-nil) lists each
// nonbasic column with a stored entry in a row of ρ's support once, and
// no other — no basic column — in the order a walk of those rows'
// mirrors, ascending, first reaches it, and α is read from candAlpha at
// the listed columns; the dense arm (cands nil) leaves α in candAlpha at
// every nonbasic column.
func (c *listChecker) price(r *Revised, amult float64, cands []int32) {
	c.t.Helper()
	c.priced++
	if len(c.inRow) < r.artStart {
		c.inRow = make([]bool, r.artStart)
	}
	seen := c.inRow[:r.artStart]
	clear(seen)
	alpha := func(j int) float64 {
		a := 0.0
		for t := r.sp.colPtr[j]; t < r.sp.colPtr[j+1]; t++ {
			i := r.sp.rowIdx[t]
			a += amult * r.rho[i] * r.sign[i] * r.sp.val[t]
		}
		return a
	}
	if cands == nil {
		for j := 0; j < r.artStart; j++ {
			if !r.inBasis[j] && !sameFloat(r.candAlpha[j], alpha(j)) {
				c.t.Fatalf("dense pricing: α[%d] = %v, the pivot row's entry is %v", j, r.candAlpha[j], alpha(j))
			}
		}
		return
	}
	c.scatters++
	for _, j := range cands {
		if r.inBasis[j] {
			c.t.Fatalf("scatter: basic column %d listed", j)
		}
	}
	n := 0
	for _, i := range r.rhoIdx {
		for _, j := range r.rowCols[i] {
			if r.inBasis[j] || seen[j] {
				continue
			}
			seen[j] = true
			if n >= len(cands) || cands[n] != j {
				c.t.Fatalf("scatter: candidate %d is not column %d, the next nonbasic column ρ's rows reach (%d listed)", n, j, len(cands))
			}
			if !sameFloat(r.candAlpha[j], alpha(int(j))) {
				c.t.Fatalf("scatter: α[%d] = %v, the pivot row's entry is %v", j, r.candAlpha[j], alpha(int(j)))
			}
			n++
		}
	}
	if n != len(cands) {
		c.t.Fatalf("scatter: %d candidates listed, ρ's rows reach %d nonbasic columns", len(cands), n)
	}
}

// solved fails unless the sparse solve's x, listed by idx, equals the
// general solve's y float for float.
func (c *listChecker) solved(name, where string, f *luFactor, x, y []float64, idx []int32) {
	c.t.Helper()
	c.listed(name, where, x, idx)
	for i := range x {
		if !sameFloat(x[i], y[i]) {
			c.t.Fatalf("%s: %s[%d] = %v, the general solve's %v (%d etas)", where, name, i, x[i], y[i], len(f.etas))
		}
	}
	c.solves++
}

// check holds, on r's factor as it stands, each sparse FTRAN to ftran of
// its right-hand side made dense — ftranCol(j) of a column, ftranRows of a
// few-row vector, τ from a row of B⁻¹ and its list, the bound-flip
// aggregate of a few columns — and btranRow(p) to btran of the unit
// vector, for a few columns, row sets, rows and flips and for the
// positions eliminated first and last, with each result's list and ‖ρ‖²
// checked against the vector. The sparse solves write into x, kept zero
// outside its list xIdx as the simplex keeps d and τ.
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
		c.x, c.y, c.z = make([]float64, m), make([]float64, m), make([]float64, m)
		c.w, c.acc = make([]float64, m), make([]float64, m)
		c.xIdx, c.idx = make([]int32, 0, m), make([]int32, 0, m)
	}
	c.xIdx = c.xIdx[:0]
	clear(c.x)
	x, y, z := c.x[:m], c.y[:m], c.z[:m]
	c.etasSeen[len(f.etas)] = true
	for n := 0; n < 4; n++ {
		j := c.rng.Intn(r.ncols)
		c.xIdx = f.ftranCol(j, x, c.xIdx)
		clear(y)
		r.effCol(j, func(i int, v float64) { y[i] += v })
		f.ftran(y, y)
		c.solved("ftranCol", where, f, x, y, c.xIdx)
		// What the eta file alone filled: the reason the list is built last.
		etas := f.etas
		f.etas = nil
		clear(y)
		f.ftranCol(j, y, c.idx[:0])
		f.etas = etas
		for i := range x {
			if y[i] == 0 && x[i] != 0 {
				c.etaFill++
			}
		}
	}
	// ftranRows of a right-hand side on a few rows — with the rows
	// eliminated first and last among them — against ftran of the vector.
	for _, ends := range [][]int32{{f.rowOfPos[0]}, {f.rowOfPos[m-1]}, nil} {
		clear(y)
		rows := ends
		for _, i := range ends {
			y[i] = c.rng.NormFloat64()
		}
		for n := 0; n < 3; n++ {
			if i := c.rng.Intn(m); y[i] == 0 { // each row listed once
				rows = append(rows, int32(i))
				y[i] = c.rng.NormFloat64()
			}
		}
		c.xIdx = f.ftranRows(rows, y, x, c.xIdx)
		f.ftran(y, y)
		c.solved("ftranRows", where, f, x, y, c.xIdx)
	}
	for n, p := range []int{int(f.colOfPos[0]), int(f.colOfPos[m-1]), c.rng.Intn(m), c.rng.Intn(m)} {
		rhoIdx, gamma := f.btranRow(p, z, c.idx[:0])
		c.listed("btranRow", where, z, rhoIdx)
		clear(y)
		y[p] = 1
		f.btran(y)
		sum := 0.0
		for i := range z {
			if !sameFloat(z[i], y[i]) {
				c.t.Fatalf("%s: btranRow(%d)[%d] = %v, btran of the unit vector %v (%d etas)", where, p, i, z[i], y[i], len(f.etas))
			}
			sum += y[i] * y[i]
		}
		if !sameFloat(gamma, sum) {
			c.t.Fatalf("%s: btranRow(%d) returned ‖ρ‖² = %v, the dense sum is %v", where, p, gamma, sum)
		}
		c.solves++
		if n < 2 {
			// τ = B⁻¹ρ from ρ's list, as the steepest-edge update solves it.
			c.xIdx = f.ftranRows(rhoIdx, z, x, c.xIdx)
			f.ftran(y, z)
			c.solved("tau", where, f, x, y, c.xIdx)
		}
	}
	// The bound-flip aggregate Σ ±U_j·A_j of a few columns, added into the
	// solve's right-hand side column by column, against ftran of the sum
	// built densely in the same order.
	clear(y)
	for n := 0; n < 1+c.rng.Intn(4); n++ {
		j, du := c.rng.Intn(r.artStart), c.rng.NormFloat64()
		r.effCol(j, func(i int, v float64) {
			f.add(i, v*du)
			y[i] += v * du
		})
	}
	c.xIdx = f.solve(x, c.xIdx)
	f.ftran(y, y)
	c.solved("flips", where, f, x, y, c.xIdx)

	// The exact steepest-edge weights, summed down B⁻¹'s columns solved
	// from unit vectors, against the same sums over ftran of each unit
	// vector made dense: every column's nonzeros are the dense column's,
	// float for float, and each γ_i adds them in the same order, so the
	// weights agree bit for bit. Every few audits, and on every clean
	// factor and one-eta file.
	if len(f.etas) > 1 && c.audits%8 != 0 {
		return
	}
	w, acc := c.w[:m], c.acc[:m]
	c.xIdx = r.exactWeights(w, x, c.xIdx)
	c.listed("last column of B⁻¹", where, x, c.xIdx)
	clear(acc)
	for k := 0; k < m; k++ {
		clear(y)
		y[k] = 1
		f.ftran(y, y)
		for i, v := range y {
			acc[i] += v * v
		}
	}
	for i := range w {
		if a := max(acc[i], dseFloor); !sameFloat(w[i], a) {
			c.t.Fatalf("%s: exact weight %d = %v, the dense columns' sum %v (%d etas)", where, i, w[i], a, len(f.etas))
		}
	}
	c.weights++
	if len(f.etas) > 0 {
		c.etaW++
	}
}

// TestSolveListsMatchDense: through basisSchedule — cold solves, so primal
// and driveOutArtificials pivot under it too, continued solves,
// Freeze…Rewind rounds across an in-dual refactorization, an Infeasible
// verdict, a fork and a fork of it — before every pivot and primal bound
// flip d's and ρ's lists are exactly the ascending nonzero positions of
// their vectors (an eta-only fill listed, a −0 not); after every dual
// pricing pass the scatter's candidate
// list holds no basic column and every nonbasic column ρ's rows reach, in
// first-reach order, and each α it or the dense arm left equals the dense
// pivot-row entry amult·ρ·sign·A_j float for float; and there, right after
// every Rewind and on a fork that still aliases its parent's frozen
// arrays, the sparse-entry solves — FTRAN of a column, of a few-row rhs (a
// start from the frozen state's), of ρ from its list (τ) and of a
// bound-flip aggregate, BTRAN of a unit vector — list their nonzeros
// exactly and equal the general ones float for float, with an empty eta
// file, one eta and a full one, and the exact steepest-edge weights summed
// down B⁻¹'s sparse columns equal the sums over dense ones bit for bit. No
// clock is read.
func TestSolveListsMatchDense(t *testing.T) {
	c := &listChecker{t: t, rng: rand.New(rand.NewSource(24))}
	basisSchedule(t, &djChecker{t: t, also: c.check}, c.attach)

	var st Stats
	for _, r := range c.all {
		st.Add(r.stats)
	}
	repair := st.Pivots - st.PrimalPivots - st.DualPivots
	t.Logf("%d audits (%d primal, %d dual, %d repair pivots, %d flips), %d pricing passes (%d scattered), %d solve pairs, %d eta-only fills, %d unlisted −0, %d exact weight sets (%d on an eta file)",
		c.audits, st.PrimalPivots, st.DualPivots, repair, st.BoundFlips, c.priced, c.scatters, c.solves, c.etaFill, c.negZero, c.weights, c.etaW)
	if st.PrimalPivots == 0 || st.DualPivots < 500 || repair == 0 || c.audits < st.Pivots || c.priced < st.DualPivots ||
		c.scatters == 0 || c.scatters == c.priced || !c.etasSeen[0] || !c.etasSeen[1] || c.etaFill == 0 || c.negZero == 0 ||
		c.weights < 50 || c.etaW == 0 {
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

// scratchClean reports what the next sparse solve on r would find out of
// place: a set bit in either touched-position bitset (a stale bit costs
// work), a nonzero in the solve workspace, or d or τ not zero outside its
// list — the list exactly the vector's ascending nonzeros (a missing entry
// costs correctness).
func scratchClean(r *Revised) error {
	f := r.fac
	for b := range f.wMark {
		if f.wMark[b] != 0 || f.outMark[b] != 0 {
			return fmt.Errorf("bitset word %d set: wMark %#x, outMark %#x", b, f.wMark[b], f.outMark[b])
		}
	}
	for k, v := range f.w {
		if v != 0 {
			return fmt.Errorf("workspace position %d holds %v", k, v)
		}
	}
	for _, vec := range []struct {
		name string
		v    []float64
		idx  []int32
	}{{"d", r.d, r.dIdx}, {"tau", r.tau, r.tauIdx}} {
		n := 0
		for i, x := range vec.v {
			if x == 0 {
				continue
			}
			if n >= len(vec.idx) || int(vec.idx[n]) != i {
				return fmt.Errorf("%s[%d] = %v is not entry %d of its list", vec.name, i, x, n)
			}
			n++
		}
		if n != len(vec.idx) {
			return fmt.Errorf("%s has %d nonzeros, its list %d entries", vec.name, n, len(vec.idx))
		}
	}
	return nil
}

// TestSparseSolveScratchIsClean: the sparse FTRANs share one workspace and
// two touched-position bitsets per context, and each assumes the last left
// the workspace zero, the bitsets empty and d and τ zero outside their
// lists. That holds before every pivot and after every solve on a context,
// on a fork, on a reforked fork, after a Rewind across a solve that
// refactorized inside the dual, after a cold fallback and after each exact
// steepest-edge initialization. A stale bit would cost work without
// failing anything else; a missing one, correctness. No clock is read.
func TestSparseSolveScratchIsClean(t *testing.T) {
	clean := func(r *Revised, where string) {
		t.Helper()
		if err := scratchClean(r); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	pivots := 0
	watch := func(r *Revised) {
		r.onPivot = func() {
			pivots++
			clean(r, "pivot")
		}
	}
	rng := rand.New(rand.NewSource(41))
	p := whatIfLP(rng, 120, 80)
	r := NewRevised(p)
	watch(r)
	if sol, err := r.SolveFrom(nil); err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	clean(r, "cold solve")
	bas := r.Basis()
	committed := saveProblem(p)
	nudge := func(p *Problem) {
		for n := 0; n < 3; n++ {
			i := rng.Intn(p.NumConstraints())
			p.SetRHS(i, p.RHS(i)*(0.4+rng.Float64()))
		}
		p.SetVarBounds(rng.Intn(p.NumVars()), 0, 0.5+3*rng.Float64())
	}
	solve := func(r *Revised, where string) {
		t.Helper()
		if _, err := r.SolveFrom(bas); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		clean(r, where)
	}
	for k := 0; k < 4; k++ {
		nudge(p)
		solve(r, "continued")
	}
	committed.restore(p)
	solve(r, "back to the committed program")
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	whatIfs := func(r *Revised, who string) {
		t.Helper()
		p := r.Problem()
		for k := 0; k < 4; k++ {
			nudge(p)
			solve(r, who+": what-if")
			committed.restore(p)
			r.Rewind()
			clean(r, who+": rewound")
		}
	}
	whatIfs(r, "context")

	f, err := r.Fork()
	if err != nil {
		t.Fatal(err)
	}
	watch(f)
	clean(f, "fork at birth")
	whatIfs(f, "fork")
	// A commit on the parent moves its frozen state; the kept fork is
	// reforked onto it.
	nudge(p)
	solve(r, "commit")
	committed = saveProblem(p)
	if err := r.Refork(f); err != nil {
		t.Fatal(err)
	}
	clean(f, "reforked fork")
	whatIfs(f, "reforked fork")

	// A heavy what-if that runs the eta file out inside the dual, then the
	// Rewind back across that refactorization.
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	before := r.stats
	for i := 0; i < p.NumConstraints(); i++ {
		p.SetRHS(i, p.RHS(i)*(0.2+0.8*rng.Float64()))
	}
	for j := 0; j < p.NumVars(); j += 2 {
		p.SetVarBounds(j, 0, 2*rng.Float64())
	}
	solve(r, "heavy what-if")
	if r.stats.DualPivots-before.DualPivots <= luMaxEtas || r.stats.Refactorizations == before.Refactorizations {
		t.Fatalf("heavy what-if: %d dual pivots, %d refactorizations — it must refactorize inside the dual",
			r.stats.DualPivots-before.DualPivots, r.stats.Refactorizations-before.Refactorizations)
	}
	committed.restore(p)
	r.Rewind()
	clean(r, "rewound across a refactorization")

	// A warm restart given one pivot falls back cold.
	before = r.stats
	r.budgetOverride = 1
	for i := 0; i < p.NumConstraints(); i++ {
		p.SetRHS(i, p.RHS(i)*(0.2+0.8*rng.Float64()))
	}
	solve(r, "cold fallback")
	r.budgetOverride = 0
	if r.stats.ColdFallbacks == before.ColdFallbacks {
		t.Fatal("the one-pivot budget did not fall back cold")
	}
	committed.restore(p)
	solve(r, "after the cold fallback")

	// The exact steepest-edge initialization solves a column of B⁻¹ per row
	// through the same workspace, bitsets and τ: at a Freeze after a cold
	// solve left no weights, and at the dual's entry after a basis installed
	// without any.
	before = r.stats
	if _, err := r.SolveFrom(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	clean(r, "exact weights at Freeze")
	cols, upper, _ := r.Basis().View()
	r.Rebase()
	nudge(p)
	if _, err := r.SolveFrom(ImportBasis(cols, upper, nil)); err != nil {
		t.Fatal(err)
	}
	clean(r, "exact weights at the dual's entry")
	if n := r.stats.DSEWeightResets - before.DSEWeightResets; n != 2 || r.stats.ColdFallbacks != before.ColdFallbacks {
		t.Fatalf("%d exact initializations, %d cold fallbacks: want one at the Freeze and one at the weightless install",
			n, r.stats.ColdFallbacks-before.ColdFallbacks)
	}
	if pivots < 100 {
		t.Fatalf("only %d pivots checked", pivots)
	}
}
