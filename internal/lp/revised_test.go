package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	. "repro/internal/lp"
)

func crossCheck(t *testing.T, p *Problem, seed int64, label string) {
	t.Helper()
	rs, err := p.Solve()
	if err != nil {
		t.Fatalf("%s seed %d: revised: %v", label, seed, err)
	}
	checkOracle(t, p, rs, fmt.Sprintf("%s seed %d", label, seed))
}

func TestRevisedMatchesOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		crossCheck(t, RandomFeasibleProblem(rng, false), seed, "random")
	}
}

func TestRevisedMatchesOracleDegenerate(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		crossCheck(t, RandomFeasibleProblem(rng, true), seed, "degenerate")
	}
}

// TestWarmMatchesColdAfterRHSChange is the warm-start contract: after
// mutating right-hand sides, SolveFrom(previous basis) must agree
// with a from-scratch solve — same status, same objective.
func TestWarmMatchesColdAfterRHSChange(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		p := RandomFeasibleProblem(rng, seed%2 == 0)
		r := NewRevised(p)
		sol, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("seed %d: cold status %v", seed, sol.Status)
		}
		basis := r.Basis()
		// Mutate a few right-hand sides, keeping signs (the typical
		// bound-change pattern of the layers above).
		n := p.NumConstraints()
		for c := 0; c < 1+rng.Intn(3); c++ {
			i := rng.Intn(n)
			p.SetRHS(i, p.RHS(i)*(0.3+rng.Float64()*1.4))
		}
		warm, err := r.SolveFrom(basis)
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		cold, err := p.Solve()
		if err != nil {
			t.Fatalf("seed %d: fresh cold: %v", seed, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("seed %d: warm %v, cold %v", seed, warm.Status, cold.Status)
		}
		if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > ObjTol(cold.Objective) {
			t.Fatalf("seed %d: warm obj %.12g, cold obj %.12g", seed, warm.Objective, cold.Objective)
		}
		// And against the oracle as well.
		checkOracle(t, p, warm, fmt.Sprintf("seed %d warm", seed))
	}
}

// TestWarmRepeatedTightenLoosen drives one instance through a long
// mutate/re-solve sequence, warm-starting each step from the previous
// basis — the LPRR pin-sequence access pattern.
func TestWarmRepeatedTightenLoosen(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := New(4)
	for j := 0; j < 4; j++ {
		p.SetObjective(j, 1+rng.Float64())
	}
	rows := make([]int, 0, 6)
	for i := 0; i < 4; i++ {
		rows = append(rows, p.AddConstraint([]Term{{Var: i, Coeff: 1}}, LE, 10))
	}
	rows = append(rows, p.AddConstraint([]Term{
		{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}, {Var: 2, Coeff: 1}, {Var: 3, Coeff: 1},
	}, LE, 25))
	r := NewRevised(p)
	if _, err := r.SolveFrom(nil); err != nil {
		t.Fatal(err)
	}
	basis := r.Basis()
	for step := 0; step < 60; step++ {
		i := rows[rng.Intn(len(rows))]
		p.SetRHS(i, rng.Float64()*12)
		warm, err := r.SolveFrom(basis)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkOracle(t, p, warm, fmt.Sprintf("step %d", step))
		basis = r.Basis()
	}
}

func TestSetRHSValidation(t *testing.T) {
	p := New(1)
	p.AddConstraint([]Term{{Var: 0, Coeff: 1}}, LE, 1)
	MustPanic(t, func() { p.SetRHS(1, 0) })
	MustPanic(t, func() { p.SetRHS(0, math.NaN()) })
	MustPanic(t, func() { p.RHS(-1) })
	p.SetRHS(0, 3)
	if p.RHS(0) != 3 {
		t.Fatalf("RHS = %g, want 3", p.RHS(0))
	}
}

func TestRevisedFrozenStructure(t *testing.T) {
	p := New(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Term{{Var: 0, Coeff: 1}}, LE, 1)
	r := NewRevised(p)
	if _, err := r.SolveFrom(nil); err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Term{{Var: 0, Coeff: 1}}, LE, 2)
	MustPanic(t, func() { _, _ = r.SolveFrom(nil) })
}
