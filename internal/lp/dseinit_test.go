package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestExactWeightsMatchRowNorms: the exact steepest-edge initialization
// sums B⁻¹ column by column, each column one sparse FTRAN of a unit
// vector; the weights are the squared row norms γ_i = ‖e_iᵀB⁻¹‖², which
// btranRow computes row by row. On the generator's bases — cold optima,
// the bases warm solves leave on an eta file, and the clean factor of a
// Freeze — the two agree at every row within 1e-12 relative: only the
// summation order differs. No clock is read.
func TestExactWeightsMatchRowNorms(t *testing.T) {
	worst, bases, etaBases := 0.0, 0, 0
	check := func(r *Revised, where string) {
		t.Helper()
		w := make([]float64, r.m)
		x, idx := make([]float64, r.m), make([]int32, 0, r.m)
		r.exactWeights(w, x, idx)
		for i := 0; i < r.m; i++ {
			rowIdx, gamma := r.fac.btranRow(i, r.rho, r.rhoIdx[:0])
			r.rhoIdx = rowIdx
			rel := math.Abs(w[i]-max(gamma, dseFloor)) / max(gamma, dseFloor)
			if rel > 1e-12 {
				t.Fatalf("%s: row %d: column-wise γ = %.17g, ‖btranRow‖² = %.17g (%.3g relative, %d etas)", where, i, w[i], gamma, rel, len(r.fac.etas))
			}
			worst = max(worst, rel)
		}
		bases++
		if len(r.fac.etas) > 0 {
			etaBases++
		}
	}
	for seed := int64(0); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(4800 + seed))
		var p *Problem
		switch seed % 3 {
		case 0:
			p = whatIfLP(rng, 120, 80)
		case 1:
			p = randomBoundedProblem(rng, seed%2 == 0)
		default:
			p = randomFeasibleProblem(rng, seed%2 == 0)
		}
		r := NewRevised(p)
		sol, err := r.SolveFrom(nil)
		if err != nil || sol.Status != Optimal || !r.factorized {
			continue
		}
		check(r, "cold optimum")
		bas := r.Basis()
		for step := 0; step < 4; step++ {
			mutateProblem(rng, p)
			if sol, err := r.SolveFrom(bas); err != nil || sol.Status != Optimal || !r.factorized {
				break
			}
			check(r, "warm solve")
			bas = r.Basis()
		}
		if r.factorized {
			if err := r.Freeze(); err != nil {
				t.Fatal(err)
			}
			check(r, "frozen")
		}
	}
	t.Logf("%d bases (%d on an eta file), worst relative difference %.3g", bases, etaBases, worst)
	if bases < 50 || etaBases == 0 {
		t.Fatalf("only %d bases checked, %d on an eta file", bases, etaBases)
	}
}
