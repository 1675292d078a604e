package lp_test

import (
	"math"
	"math/rand"
	"testing"

	. "repro/internal/lp"
	"repro/internal/lp/lptest"
)

// rowEncoded returns a copy of p with every non-default variable
// bound re-encoded as an explicit constraint row (x_j >= lb, x_j <=
// ub) over default [0, +Inf) bounds — the formulation the layers
// above used before the native bounded-variable API. The native and
// row-encoded programs are mathematically identical, so their optima
// must agree to solver tolerance; the property tests below pin that.
func rowEncoded(p *Problem) *Problem {
	q := New(p.NumVars())
	for j := 0; j < p.NumVars(); j++ {
		q.SetObjective(j, p.Objective(j))
	}
	for i := 0; i < p.NumConstraints(); i++ {
		q.AddConstraint(p.Constraint(i))
	}
	for j := 0; j < p.NumVars(); j++ {
		lb, ub := p.VarBounds(j)
		if lb != 0 {
			q.AddConstraint([]Term{{Var: j, Coeff: 1}}, GE, lb)
		}
		if !math.IsInf(ub, 1) {
			q.AddConstraint([]Term{{Var: j, Coeff: 1}}, LE, ub)
		}
	}
	return q
}

// checkAgainstRowEncoding solves p natively through both backends and
// the row-encoded equivalent through both backends, and requires all
// four to agree on status and (when optimal) objective to 1e-9. It
// also checks the native solutions actually respect the bounds.
func checkAgainstRowEncoding(t *testing.T, p *Problem, seed int64, label string) {
	t.Helper()
	q := rowEncoded(p)
	ref, err := lptest.DenseSolver{}.Solve(q)
	if err != nil {
		t.Fatalf("%s seed %d: row-encoded dense: %v", label, seed, err)
	}
	refRev, err := q.Solve()
	if err != nil {
		t.Fatalf("%s seed %d: row-encoded revised: %v", label, seed, err)
	}
	if ref.Status != refRev.Status {
		t.Fatalf("%s seed %d: row-encoded dense %v, revised %v", label, seed, ref.Status, refRev.Status)
	}
	for _, s := range solvers {
		sol, err := s.solve(p)
		if err != nil {
			t.Fatalf("%s seed %d: native %s: %v", label, seed, s.name, err)
		}
		if sol.Status != ref.Status {
			t.Fatalf("%s seed %d: native %s %v, row-encoded %v", label, seed, s.name, sol.Status, ref.Status)
		}
		if sol.Status != Optimal {
			continue
		}
		if math.Abs(sol.Objective-ref.Objective) > ObjTol(ref.Objective) {
			t.Fatalf("%s seed %d: native %s obj %.12g, row-encoded obj %.12g (Δ=%g)",
				label, seed, s.name, sol.Objective, ref.Objective, math.Abs(sol.Objective-ref.Objective))
		}
		for j := 0; j < p.NumVars(); j++ {
			lb, ub := p.VarBounds(j)
			if sol.X[j] < lb-1e-7 || sol.X[j] > ub+1e-7 {
				t.Fatalf("%s seed %d: native %s x[%d] = %g outside [%g, %g]",
					label, seed, s.name, j, sol.X[j], lb, ub)
			}
		}
	}
}

func TestBoundedMatchesRowEncodedRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(5000 + seed))
		checkAgainstRowEncoding(t, RandomBoundedProblem(rng, false), seed, "bounded")
	}
}

func TestBoundedMatchesRowEncodedDegenerate(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(6000 + seed))
		checkAgainstRowEncoding(t, RandomBoundedProblem(rng, true), seed, "bounded-degenerate")
	}
}

// TestWarmMatchesColdAfterBoundChange is the extended warm-start
// contract: after mutating variable bounds (and occasionally right-
// hand sides), SolveFrom(previous basis) must agree with the
// row-encoded cold reference — same status, same objective — even
// when the mutation makes the program infeasible.
func TestWarmMatchesColdAfterBoundChange(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		p := RandomBoundedProblem(rng, seed%2 == 0)
		r := NewRevised(p)
		sol, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("seed %d: cold status %v", seed, sol.Status)
		}
		basis := r.Basis()
		for step := 0; step < 25; step++ {
			for c := 0; c < 1+rng.Intn(3); c++ {
				j := rng.Intn(p.NumVars())
				switch rng.Intn(5) {
				case 0:
					p.SetVarBounds(j, 0, math.Inf(1))
				case 1: // tighten to a box (possibly empty relative to rows)
					lb := rng.Float64() * 4
					p.SetVarBounds(j, lb, lb+rng.Float64()*4)
				case 2: // pin
					v := rng.Float64() * 4
					p.SetVarBounds(j, v, v)
				case 3: // upper bound only
					p.SetVarBounds(j, 0, rng.Float64()*5)
				case 4: // rhs mutation rides along
					i := rng.Intn(p.NumConstraints())
					p.SetRHS(i, p.RHS(i)*(0.3+rng.Float64()*1.4))
				}
			}
			warm, err := r.SolveFrom(basis)
			if err != nil {
				t.Fatalf("seed %d step %d: warm: %v", seed, step, err)
			}
			basis = r.Basis()
			cold, err := lptest.DenseSolver{}.Solve(rowEncoded(p))
			if err != nil {
				t.Fatalf("seed %d step %d: row-encoded dense: %v", seed, step, err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("seed %d step %d: warm %v, row-encoded %v", seed, step, warm.Status, cold.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > ObjTol(cold.Objective) {
				t.Fatalf("seed %d step %d: warm obj %.12g, row-encoded obj %.12g (Δ=%g)",
					seed, step, warm.Objective, cold.Objective, math.Abs(warm.Objective-cold.Objective))
			}
		}
	}
}

func TestSetVarBoundsValidation(t *testing.T) {
	p := New(2)
	MustPanic(t, func() { p.SetVarBounds(2, 0, 1) })                     // out of range
	MustPanic(t, func() { p.SetVarBounds(0, 2, 1) })                     // lb > ub rejected
	MustPanic(t, func() { p.SetVarBounds(0, -1, 1) })                    // negative lb
	MustPanic(t, func() { p.SetVarBounds(0, math.NaN(), 1) })            // NaN lb
	MustPanic(t, func() { p.SetVarBounds(0, 0, math.NaN()) })            // NaN ub
	MustPanic(t, func() { p.SetVarBounds(0, math.Inf(1), math.Inf(1)) }) // infinite lb
	MustPanic(t, func() { p.SetVarBounds(0, 0, math.Inf(-1)) })          // ub = -Inf
	p.SetVarBounds(0, 1, 1)                                              // fixed is legal
	p.SetVarBounds(1, 2, math.Inf(1))                                    // open above is legal
	if lb, ub := p.VarBounds(0); lb != 1 || ub != 1 {
		t.Fatalf("VarBounds(0) = [%g, %g], want [1, 1]", lb, ub)
	}
	if lb, ub := p.VarBounds(1); lb != 2 || !math.IsInf(ub, 1) {
		t.Fatalf("VarBounds(1) = [%g, %g], want [2, +Inf)", lb, ub)
	}
}
