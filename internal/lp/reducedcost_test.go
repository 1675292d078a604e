package lp

import (
	"math"
	"math/rand"
	"testing"
)

// djChecker compares a context's maintained reduced costs against ones
// derived from scratch, and counts what it has seen so the test can show
// it was not vacuous.
type djChecker struct {
	t                     *testing.T
	checks, pivots        int
	infeasible, zeroPivot int
	worst                 float64
	// also, when set, sees every context check sees, so another test can
	// audit something else at the same points of basisSchedule.
	also func(r *Revised, where string)
}

// check requires, while djOK, dj[j] = c_j − y·A_j within 1e-9·(1+costScale)
// on every nonbasic priced column and exactly 0 on basic ones. The fresh
// side shares no code with computeDJ: unsigned multipliers from its own
// BTRAN, gathered down effCol's sign-normalized columns.
func (c *djChecker) check(r *Revised, where string) {
	c.t.Helper()
	if c.also != nil {
		c.also(r, where)
	}
	if !r.djOK {
		return
	}
	c.checks++
	y := make([]float64, r.m)
	for i, bj := range r.basis {
		y[i] = r.c2[bj]
	}
	r.fac.btran(y)
	tol := 1e-9 * (1 + r.costScale)
	for j := 0; j < r.artStart; j++ {
		if r.inBasis[j] {
			if r.dj[j] != 0 {
				c.t.Fatalf("%s: basic column %d carries reduced cost %g", where, j, r.dj[j])
			}
			continue
		}
		fresh := r.c2[j]
		r.effCol(j, func(i int, v float64) { fresh -= y[i] * v })
		d := math.Abs(r.dj[j] - fresh)
		if d > tol || math.IsNaN(d) {
			c.t.Fatalf("%s: column %d maintained %.15g, fresh %.15g (diff %g > %g)", where, j, r.dj[j], fresh, d, tol)
		}
		c.worst = math.Max(c.worst, d)
	}
}

// stepDual runs the warm path's dual one pivot per call — the entry
// sequence of warmSolve, then dual() under a budget of one iteration —
// checking the vector after every pivot. It leaves the context wherever
// the dual stopped; the caller's SolveFrom finishes the solve.
func (c *djChecker) stepDual(r *Revised, where string) {
	c.t.Helper()
	r.gen++ // a solve by hand: the state leaves the frozen one, as SolveFrom's does
	r.refreshRHS()
	r.computeXB()
	if !r.djOK {
		r.computeDJ()
	}
	if dualInfeasible, _ := r.priceScan(r.dualTol(), eps); dualInfeasible {
		return
	}
	r.budgetOverride = 1
	defer func() { r.budgetOverride = 0 }()
	for n := 0; n < 50*(r.m+r.ncols); n++ {
		before := r.stats
		_, err := r.dual()
		c.pivots += r.stats.DualPivots - before.DualPivots
		c.check(r, where)
		if err == nil {
			return
		}
	}
	c.t.Fatalf("%s: stepped dual did not stop", where)
}

// solve is one warm solve from the carried basis, stepped through the
// dual first on request, with the vector checked at its end.
func (c *djChecker) solve(r *Revised, bas *Basis, stepped bool, where string) *Basis {
	c.t.Helper()
	if stepped && r.factorized {
		c.stepDual(r, where+" (stepped)")
	}
	before := r.stats
	sol, err := r.SolveFrom(bas)
	if err != nil {
		c.t.Fatalf("%s: %v", where, err)
	}
	c.pivots += r.stats.DualPivots - before.DualPivots
	if sol.Status == Infeasible {
		c.infeasible++
	}
	if r.stats.Pivots == before.Pivots && r.stats.ColdSolves == before.ColdSolves {
		c.zeroPivot++
	}
	c.check(r, where)
	return r.Basis()
}

// problemState saves and restores a problem's rhs and bounds.
type problemState struct{ rhs, lb, ub []float64 }

func saveProblem(p *Problem) problemState {
	s := problemState{lb: append([]float64(nil), p.lb...), ub: append([]float64(nil), p.ub...)}
	for _, rw := range p.rows {
		s.rhs = append(s.rhs, rw.rhs)
	}
	return s
}

func (s problemState) restore(p *Problem) {
	for i, v := range s.rhs {
		p.SetRHS(i, v)
	}
	for j := range s.lb {
		p.SetVarBounds(j, s.lb[j], s.ub[j])
	}
}

// TestReducedCostsTrackBasis: the reduced-cost vector the dual maintains
// along its pivot rows is, after every dual pivot and at the end of every
// warm solve, the one a fresh multiplier solve gives, within
// 1e-9·(1+costScale), and exactly 0 on basic columns. basisSchedule runs
// it through continued solves, Freeze…Rewind rounds, a refactorization
// inside the dual, an Infeasible verdict, a fork and a fork of it, on
// boxed, degenerate and network-shaped instances; the worst gap is
// printed. No clock is read.
func TestReducedCostsTrackBasis(t *testing.T) {
	c := &djChecker{t: t}
	basisSchedule(t, c, func(*Revised) {})
	t.Logf("%d checks, %d dual pivots, %d infeasible verdicts, %d zero-pivot solves, worst |maintained − fresh| %.3g",
		c.checks, c.pivots, c.infeasible, c.zeroPivot, c.worst)
	if c.checks < 1000 || c.pivots < 500 || c.zeroPivot == 0 {
		t.Fatalf("the sequences checked too little: %d checks over %d dual pivots, %d zero-pivot solves", c.checks, c.pivots, c.zeroPivot)
	}
}

// TestSafetyNetRescansAfterDualMoves: warmSolve's one scan of dj answers
// the dual's entry test and the safety net after it, and the second
// answer is reused only if the dual left dj, the basis and the at-upper
// set as it found them. On small integer programs whose costs differ by a
// few 1e-8 — between eps and the dual tolerance, where the dual's Harris
// pass may enter a column that leaves another's reduced cost on the wrong
// side by more than eps — the entry scan finds nothing at eps, the dual
// pivots, and the rescan sends the primal in. Every answer equals a cold
// solve's. No clock is read.
func TestSafetyNetRescansAfterDualMoves(t *testing.T) {
	rescued := 0
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv, m := 2+rng.Intn(4), 2+rng.Intn(5)
		p := New(nv)
		for j := 0; j < nv; j++ {
			p.SetObjective(j, float64(rng.Intn(5))+float64(rng.Intn(4))*3e-8)
			if rng.Intn(2) == 0 {
				p.SetVarBounds(j, 0, float64(1+rng.Intn(6)))
			}
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for j := 0; j < nv; j++ {
				if c := rng.Intn(5) - 1; c != 0 {
					terms = append(terms, Term{j, float64(c)})
				}
			}
			p.AddConstraint(terms, LE, float64(2+rng.Intn(10)))
		}
		r := NewRevised(p)
		sol, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		bas := r.Basis()
		if err := r.Freeze(); err != nil {
			t.Fatal(err)
		}
		committed := saveProblem(p)
		for k := 0; k < 5; k++ {
			// A right-hand side only, so the rewound dj and at-upper set
			// are exactly what warmSolve's entry scan reads.
			p.SetRHS(rng.Intn(m), float64(rng.Intn(12)-1))
			_, entry := r.priceScan(eps, eps)
			before := r.stats
			sol, err := r.SolveFrom(bas)
			if err != nil {
				t.Fatal(err)
			}
			if !entry && r.stats.ColdSolves == before.ColdSolves &&
				r.stats.DualPivots > before.DualPivots && r.stats.PrimalPivots > before.PrimalPivots {
				rescued++
			}
			want, err := NewRevised(p.clone()).SolveFrom(nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != want.Status || sol.Status == Optimal && math.Abs(sol.Objective-want.Objective) > objTol(want.Objective) {
				t.Fatalf("seed %d step %d: %v %.15g, cold %v %.15g", seed, k, sol.Status, sol.Objective, want.Status, want.Objective)
			}
			committed.restore(p)
			r.Rewind()
		}
	}
	t.Logf("%d warm solves had the primal pivot after a pivoting dual with nothing pricing out at entry", rescued)
	if rescued == 0 {
		t.Fatal("no dual left work for the safety net: the test lost its teeth")
	}
}

// basisSchedule drives c over boxed, degenerate and network-shaped
// instances, through continued solves from a carried basis (the
// branch-and-bound sibling pattern), Freeze…Rewind rounds, a solve long
// enough to refactorize inside the dual, one that ends Infeasible, a fork
// and a fork of that fork. born sees every context before its first solve:
// a root before its cold solve, a fork at birth. Every context is also
// under a warmAudit: each refresh held to a full one, each start from the
// frozen state to a full computeXB and full scans, and before every
// pivot the infeasibility set, the walks over it and the reduced-cost
// scan to the dense loops.
func basisSchedule(t *testing.T, c *djChecker, born func(r *Revised)) {
	audit := &warmAudit{t: t}
	defer func() {
		t.Logf("%d starts from the frozen state (%d moved xb), worst |xb − computeXB's| %.3g·(1+scale)", audit.starts, audit.moved, audit.worst)
		if audit.pivots < 500 || audit.inSet == 0 || audit.choices == 0 || audit.out == 0 || audit.refreshes == 0 ||
			audit.starts < 50 || audit.moved == 0 {
			t.Fatalf("the warm audit saw too little: %+v", *audit)
		}
	}()
	bornOnly := born
	born = func(r *Revised) {
		bornOnly(r)
		audit.attach(r)
	}
	// rounds runs continued solves, then what-if rounds around a Freeze,
	// on r and — once — on a fork and a fork of it.
	var rounds func(r *Revised, bas *Basis, rng *rand.Rand, mutate func(*rand.Rand, *Problem), depth int, who string)
	rounds = func(r *Revised, bas *Basis, rng *rand.Rand, mutate func(*rand.Rand, *Problem), depth int, who string) {
		p := r.Problem()
		committed := saveProblem(p)
		for k := 0; k < 4; k++ {
			mutate(rng, p)
			bas = c.solve(r, bas, k%2 == 1, who+": continued")
		}
		committed.restore(p)
		bas = c.solve(r, bas, false, who+": back to the committed program")
		if err := r.Freeze(); err != nil {
			t.Fatalf("%s: freeze: %v", who, err)
		}
		c.check(r, who+": frozen")
		for k := 0; k < 4; k++ {
			mutate(rng, p)
			c.solve(r, bas, k%2 == 0, who+": what-if")
			committed.restore(p)
			r.Rewind()
			c.check(r, who+": rewound")
		}
		if depth < 2 {
			f, err := r.Fork()
			if err != nil {
				t.Fatalf("%s: fork: %v", who, err)
			}
			born(f)
			c.check(f, who+": fork at birth")
			rounds(f, bas, rng, mutate, depth+1, who+", fork")
		}
	}

	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		var p *Problem
		if seed%2 == 0 {
			p = randomBoundedProblem(rng, seed%4 == 0) // boxed; every other one degenerate
		} else {
			p = randomFeasibleProblem(rng, true) // degenerate rows, default bounds
		}
		r := NewRevised(p)
		born(r)
		if _, err := r.SolveFrom(nil); err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		rounds(r, r.Basis(), rng, mutateProblem, 0, "random")
	}

	// The scheduling models' shape, large enough that a heavy mutation
	// needs more dual pivots than the eta file holds.
	rng := rand.New(rand.NewSource(5))
	p := whatIfLP(rng, 120, 80)
	r := NewRevised(p)
	born(r)
	sol, err := r.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("network-shaped cold solve: status %v err %v", sol.Status, err)
	}
	bas := r.Basis()
	nudge := func(rng *rand.Rand, p *Problem) {
		for n := 0; n < 3; n++ {
			i := rng.Intn(p.NumConstraints())
			p.SetRHS(i, p.RHS(i)*(0.4+rng.Float64()))
		}
		p.SetVarBounds(rng.Intn(p.NumVars()), 0, 0.5+3*rng.Float64())
	}
	rounds(r, bas, rng, nudge, 0, "network")
	heavy := func(rng *rand.Rand, p *Problem) {
		for i := 0; i < p.NumConstraints(); i++ {
			p.SetRHS(i, p.RHS(i)*(0.2+0.8*rng.Float64()))
		}
		for j := 0; j < p.NumVars(); j += 2 {
			p.SetVarBounds(j, 0, 2*rng.Float64())
		}
	}
	committed := saveProblem(p)
	for _, stepped := range []bool{true, false} {
		before := r.stats
		heavy(rand.New(rand.NewSource(7)), p)
		c.solve(r, bas, stepped, "network: heavy")
		if r.stats.DualPivots-before.DualPivots <= luMaxEtas || r.stats.Refactorizations == before.Refactorizations {
			t.Fatalf("heavy round (stepped=%v): %d dual pivots, %d refactorizations — it must refactorize inside the dual", stepped,
				r.stats.DualPivots-before.DualPivots, r.stats.Refactorizations-before.Refactorizations)
		}
		committed.restore(p)
		r.Rewind()
		p.SetVarBounds(1, 1e6, math.Inf(1))
		infeasible := c.infeasible
		c.solve(r, bas, stepped, "network: infeasible")
		if c.infeasible == infeasible {
			t.Fatalf("infeasible round (stepped=%v) was not", stepped)
		}
		committed.restore(p)
		r.Rewind()
		c.check(r, "network: rewound after Infeasible")
	}
}
