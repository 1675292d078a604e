package lp

import (
	"math"
	"math/rand"
	"testing"
)

// denseBasisMatrix assembles the current basis matrix B (rows =
// constraint rows, columns = basis positions) from the instance's
// effective columns — the ground truth the factorization tests check
// FTRAN/BTRAN against.
func denseBasisMatrix(r *Revised) [][]float64 {
	B := make([][]float64, r.m)
	for i := range B {
		B[i] = make([]float64, r.m)
	}
	for p, col := range r.basis {
		r.effCol(col, func(i int, v float64) {
			B[i][p] += v
		})
	}
	return B
}

// checkFactorSolves verifies B·ftran(v) == v and Bᵀ·btran(v) == v for
// random vectors against the dense basis matrix.
func checkFactorSolves(t *testing.T, r *Revised, rng *rand.Rand, label string) {
	t.Helper()
	m := r.m
	if m == 0 {
		return
	}
	B := denseBasisMatrix(r)
	v := make([]float64, m)
	x := make([]float64, m)
	for trial := 0; trial < 3; trial++ {
		norm := 0.0
		for i := range v {
			v[i] = rng.NormFloat64()
			if a := math.Abs(v[i]); a > norm {
				norm = a
			}
		}
		tol := 1e-6 * (1 + norm)
		r.fac.ftran(x, v)
		for i := 0; i < m; i++ {
			s := 0.0
			for p := 0; p < m; p++ {
				s += B[i][p] * x[p]
			}
			if math.Abs(s-v[i]) > tol {
				t.Fatalf("%s: FTRAN residual %g at row %d (m=%d)", label, s-v[i], i, m)
			}
		}
		copy(x, v)
		r.fac.btran(x)
		for p := 0; p < m; p++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += B[i][p] * x[i]
			}
			if math.Abs(s-v[p]) > tol {
				t.Fatalf("%s: BTRAN residual %g at position %d (m=%d)", label, s-v[p], p, m)
			}
		}
	}
}

// TestLUFactorSolvesRandom pins the LU factorization itself: after
// cold solves and after warm re-solves (which grow the eta file), the
// factored FTRAN/BTRAN must invert the current basis matrix.
func TestLUFactorSolvesRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		r := NewRevised(p)
		sol, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: cold solve: %v", seed, err)
		}
		bas := r.Basis()
		if sol.Status == Optimal {
			checkFactorSolves(t, r, rng, "cold")
		}
		// Mutate and warm-restart a few times to push etas through the
		// factor, re-checking the inverse property each round.
		for step := 0; step < 4; step++ {
			mutateProblem(rng, p)
			sol, err = r.SolveFrom(bas)
			if err != nil {
				t.Fatalf("seed %d step %d: warm solve: %v", seed, step, err)
			}
			bas = r.Basis()
			if sol.Status == Optimal {
				checkFactorSolves(t, r, rng, "warm")
			}
		}
	}
}

// TestLUUpdateAgainstRefactor drives many single pivots through the
// eta-file update and, after each one, compares its FTRAN/BTRAN
// against the dense ground truth of the mutated basis — isolating the
// update algebra (eta append, stability refusal, drop tolerance) from
// the simplex on top of it.
func TestLUUpdateAgainstRefactor(t *testing.T) {
	applied := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(23000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		r := NewRevised(p)
		if sol, err := r.SolveFrom(nil); err != nil || sol.Status != Optimal || !r.factorized {
			continue
		}
		d := r.d
		for upd := 0; upd < 12; upd++ {
			// Pick a nonbasic non-artificial column and a position whose
			// update passes the stability test; apply and cross-check.
			ok := false
			for try := 0; try < 30 && !ok; try++ {
				enter := rng.Intn(r.artStart)
				if r.inBasis[enter] {
					continue
				}
				r.direction(enter)
				leave := rng.Intn(r.m)
				if math.Abs(d[leave]) < 1e-6 || r.basis[leave] >= r.artStart {
					continue
				}
				if !r.fac.update(leave, d, r.dIdx, false) {
					continue
				}
				r.inBasis[r.basis[leave]] = false
				r.basis[leave] = enter
				r.inBasis[enter] = true
				ok = true
			}
			if !ok {
				break
			}
			applied++
			checkFactorSolves(t, r, rng, "lu-update")
		}
		r.factorized = false // basis was mutated behind the solver's back
	}
	if applied == 0 {
		t.Fatal("no update was exercised")
	}
}

// TestWarmPivotBudgetScales pins the satellite contract: the dual
// restart's pivot budget grows with the basis dimension and with the
// matrix nonzeros instead of being a flat constant, and keeps a
// floor for tiny instances.
func TestWarmPivotBudgetScales(t *testing.T) {
	sparse2 := New(2)
	sparse2.AddConstraint([]Term{{Var: 0, Coeff: 1}}, LE, 1)
	sparse2.AddConstraint([]Term{{Var: 1, Coeff: 1}}, LE, 1)
	rSmall := NewRevised(sparse2)

	dense2 := New(6)
	terms := make([]Term, 6)
	for j := range terms {
		terms[j] = Term{Var: j, Coeff: float64(j + 1)}
	}
	dense2.AddConstraint(terms, LE, 10)
	dense2.AddConstraint(terms, GE, 1)
	rDenser := NewRevised(dense2)

	tall := New(2)
	for i := 0; i < 40; i++ {
		tall.AddConstraint([]Term{{Var: i % 2, Coeff: 1}}, LE, float64(i+1))
	}
	rTall := NewRevised(tall)

	small, denser, tallB := rSmall.warmPivotBudget(), rDenser.warmPivotBudget(), rTall.warmPivotBudget()
	if small < 256 {
		t.Fatalf("budget floor violated: %d", small)
	}
	if denser <= small {
		t.Fatalf("budget must grow with nonzeros: %d (nnz=%d) vs %d (nnz=%d)",
			denser, len(rDenser.sp.val), small, len(rSmall.sp.val))
	}
	if tallB <= small {
		t.Fatalf("budget must grow with basis dimension: %d (m=%d) vs %d (m=%d)",
			tallB, rTall.m, small, rSmall.m)
	}
	// And the budget is what the dual simplex actually runs under: a
	// fresh instance must report it consistently with its inputs.
	if want := 4*rTall.m + len(rTall.sp.val)/2 + 256; tallB != want {
		t.Fatalf("budget %d does not track size/nonzeros (want %d)", tallB, want)
	}
	// budgetOverride is the test hook that forces the fallback path.
	rTall.budgetOverride = 3
	if got := rTall.warmPivotBudget(); got != 3 {
		t.Fatalf("budgetOverride ignored: %d", got)
	}
}

// TestStatsCounters sanity-checks the Stats surface: a cold solve
// counts as such, warm restarts and refactorizations register, a dual
// run initializes its steepest-edge weights, Stats.Add sums the
// counters, and ResetStats zeroes everything.
func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(515151))
	var agg Stats
	for seed := 0; seed < 20; seed++ {
		p := randomBoundedProblem(rng, seed%2 == 0)
		r := NewRevised(p)
		if _, err := r.SolveFrom(nil); err != nil {
			t.Fatal(err)
		}
		bas := r.Basis()
		if st := r.Stats(); st.ColdSolves != 1 || st.Refactorizations == 0 {
			t.Fatalf("seed %d: after one cold solve: %+v", seed, st)
		}
		for step := 0; step < 3; step++ {
			mutateProblem(rng, p)
			if _, err := r.SolveFrom(bas); err != nil {
				t.Fatal(err)
			}
			bas = r.Basis()
		}
		st := r.Stats()
		if st.WarmSolves+st.ColdFallbacks != 3 {
			t.Fatalf("seed %d: 3 warm restarts counted as %d warm + %d fallbacks", seed, st.WarmSolves, st.ColdFallbacks)
		}
		if st.DualPivots > 0 && st.DSEWeightResets == 0 {
			t.Fatalf("seed %d: dual ran (%d pivots) but weights were never initialized", seed, st.DualPivots)
		}
		agg.Add(st)
		r.ResetStats()
		if r.Stats() != (Stats{}) {
			t.Fatalf("ResetStats left %+v", r.Stats())
		}
	}
	if agg.ColdSolves < 20 || agg.Pivots == 0 {
		t.Fatalf("aggregate lost counters: %+v", agg)
	}
	var one Stats
	one.Add(Stats{Pivots: 3, DSEWeightResets: 1, Forks: 4})
	one.Add(Stats{Pivots: 2, Forks: 2})
	if one.Pivots != 5 || one.DSEWeightResets != 1 || one.Forks != 6 {
		t.Fatalf("Stats.Add mishandled a sum: %+v", one)
	}
}
