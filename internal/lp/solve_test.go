package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// whatIfLP builds a mid-size sparse LE-form LP with bounded variables
// — the shape of the scheduling models — for the warm what-if tests
// and benchmarks.
func whatIfLP(r *rand.Rand, n, m int) *Problem {
	p := New(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, 0.5+r.Float64())
		if j%3 == 0 {
			p.SetVarBounds(j, 0, 2+3*r.Float64())
		}
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if r.Float64() < 0.25 {
				terms = append(terms, Term{j, 0.5 + r.Float64()*4})
			}
		}
		if len(terms) == 0 {
			terms = []Term{{i % n, 1}}
		}
		p.AddConstraint(terms, LE, 5+r.Float64()*10)
	}
	return p
}

// TestSolutionXLifetime pins the one documented lifetime of
// Solution.X: it is the context's buffer, so every solve on a context
// hands out the same one and the next solve rewrites it — a caller that
// keeps X clones it — while Problem.Solve's throwaway context makes X
// the caller's.
func TestSolutionXLifetime(t *testing.T) {
	p := whatIfLP(rand.New(rand.NewSource(3)), 30, 20)
	rev := NewRevised(p)
	s1, err := rev.SolveFrom(nil)
	if err != nil || s1.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", s1.Status, err)
	}
	kept := slices.Clone(s1.X)
	for i := 0; i < p.NumConstraints(); i++ {
		p.SetRHS(i, p.RHS(i)*0.5)
	}
	s2, err := rev.SolveFrom(rev.Basis())
	if err != nil || s2.Status != Optimal {
		t.Fatalf("warm solve: status %v err %v", s2.Status, err)
	}
	if &s1.X[0] != &s2.X[0] {
		t.Fatal("two solves on one context handed out two X buffers")
	}
	if slices.Equal(kept, s2.X) {
		t.Fatal("halving every rhs left X where it was: the test shows nothing")
	}
	if !slices.Equal(s1.X, s2.X) {
		t.Fatal("the first solve's X was not rewritten by the second")
	}

	a, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if &a.X[0] == &b.X[0] || &a.X[0] == &s2.X[0] {
		t.Fatal("Problem.Solve handed out a buffer another solve writes")
	}
}

// TestBasisWarmStartsFreshContext pins the Basis contract: whatever the
// last solve was — a cold Optimal, a warm Optimal, a solve from the
// frozen start that took no pivot, or an Infeasible verdict — the Basis
// taken after it warm-starts a fresh context over the same program to
// the same verdict and objective (within 1e-9), without a cold solve or
// a cold fallback.
func TestBasisWarmStartsFreshContext(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := whatIfLP(rng, 50, 35)
	r := NewRevised(p)
	solve := func(where string, bas *Basis, want Status) Solution {
		t.Helper()
		sol, err := r.SolveFrom(bas)
		if err != nil || sol.Status != want {
			t.Fatalf("%s: status %v err %v, want %v", where, sol.Status, err, want)
		}
		return sol
	}
	check := func(where string, sol Solution) {
		t.Helper()
		dst := NewRevised(p.clone())
		dst.Rebase() // a fresh context starts warm only from the canonical footing
		got, err := dst.SolveFrom(r.Basis())
		if err != nil {
			t.Fatalf("%s: fresh context: %v", where, err)
		}
		if st := dst.Stats(); st.ColdSolves != 0 || st.ColdFallbacks != 0 {
			t.Fatalf("%s: fresh context went cold (%d cold solves, %d fallbacks)", where, st.ColdSolves, st.ColdFallbacks)
		}
		if got.Status != sol.Status || sol.Status == Optimal && math.Abs(got.Objective-sol.Objective) > 1e-9*(1+math.Abs(sol.Objective)) {
			t.Fatalf("%s: fresh context %v %.12g, the solve %v %.12g", where, got.Status, got.Objective, sol.Status, sol.Objective)
		}
	}

	check("cold Optimal", solve("cold", nil, Optimal))

	for n := 0; n < 3; n++ {
		i := rng.Intn(p.NumConstraints())
		p.SetRHS(i, p.RHS(i)*0.6)
	}
	before := r.Stats()
	sol := solve("warm", r.Basis(), Optimal)
	if st := r.Stats(); st.WarmSolves != before.WarmSolves+1 || st.Pivots == before.Pivots {
		t.Fatal("the warm solve did not pivot warm: the case shows nothing")
	}
	check("warm Optimal", sol)

	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	committed := saveProblem(p)
	bas := r.Basis()
	for i := range p.rows {
		if sc := r.slackOfRow[i]; sc >= 0 && r.inBasis[sc] {
			p.SetRHS(i, p.RHS(i)*1.01) // moves that slack alone
			break
		}
	}
	before = r.Stats()
	sol = solve("zero-pivot", bas, Optimal)
	if base, _, _ := r.Moved(); base == nil || r.Stats().Pivots != before.Pivots {
		t.Fatal("the solve from the frozen start pivoted: the case shows nothing")
	}
	check("zero-pivot", sol)

	committed.restore(p)
	r.Rewind()
	p.SetVarBounds(1, 1e6, math.Inf(1))
	before = r.Stats()
	sol = solve("infeasible", bas, Infeasible)
	if st := r.Stats(); st.WarmSolves != before.WarmSolves+1 {
		t.Fatal("the Infeasible verdict was not a warm one")
	}
	check("Infeasible", sol)
}

// BenchmarkWarmWhatIf measures the warm what-if re-solve — mutate one
// RHS, restart the dual simplex from the committed basis, undo —
// reporting allocs/op, which must be 0 in steady state: X lands in the
// context's buffer and no basis is snapshot.
func BenchmarkWarmWhatIf(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p := whatIfLP(r, 120, 80)
	rev := NewRevised(p)
	sol, err := rev.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		b.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	basis := rev.Basis()
	rhs0 := make([]float64, p.NumConstraints())
	for i := range rhs0 {
		rhs0[i] = p.RHS(i)
	}
	b.Run("SolveFrom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			row := i % p.NumConstraints()
			p.SetRHS(row, rhs0[row]*0.8)
			if _, err := rev.SolveFrom(basis); err != nil {
				b.Fatal(err)
			}
			p.SetRHS(row, rhs0[row])
		}
	})
}
