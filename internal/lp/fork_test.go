package lp

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// forkMutation is one what-if perturbation a fork test applies: an rhs
// nudge on a row, or a bound tightening on a variable.
type forkMutation struct {
	row    int
	rhs    float64
	col    int // -1: rhs-only mutation
	lb, ub float64
}

func randomForkMutations(rng *rand.Rand, p *Problem, n int) []forkMutation {
	muts := make([]forkMutation, n)
	for k := range muts {
		i := rng.Intn(p.NumConstraints())
		m := forkMutation{row: i, rhs: p.RHS(i) + rng.NormFloat64()*0.5, col: -1}
		if rng.Float64() < 0.4 {
			j := rng.Intn(p.NumVars())
			m.col = j
			m.lb = 0
			m.ub = rng.Float64() * 4
		}
		muts[k] = m
	}
	return muts
}

// applyTo installs the mutation on p, returning an undo closure.
func (m forkMutation) applyTo(p *Problem) func() {
	oldRHS := p.RHS(m.row)
	p.SetRHS(m.row, m.rhs)
	if m.col < 0 {
		return func() { p.SetRHS(m.row, oldRHS) }
	}
	oldLb, oldUb := p.VarBounds(m.col)
	p.SetVarBounds(m.col, m.lb, m.ub)
	return func() {
		p.SetRHS(m.row, oldRHS)
		p.SetVarBounds(m.col, oldLb, oldUb)
	}
}

// serialWhatIf answers the mutation the way the scheduling service's
// single-query path does: mutate the parent's problem, warm
// SolveFrom the committed basis, roll back.
func serialWhatIf(t *testing.T, r *Revised, bas *Basis, m forkMutation) Solution {
	t.Helper()
	undo := m.applyTo(r.Problem())
	defer undo()
	sol, err := r.SolveFrom(bas)
	if err != nil {
		t.Fatalf("serial what-if: %v", err)
	}
	return sol
}

// TestForkMatchesSerialWhatIf pins the fork contract on random
// instances: every forked context's answer to a mutation equals the
// serial mutate/solve/rollback answer on the parent at 1e-9, and the
// parent's own re-solve afterwards is unchanged.
func TestForkMatchesSerialWhatIf(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomFeasibleProblem(rng, seed%2 == 1)
		r := NewRevised(p)
		base, err := r.SolveFrom(nil)
		if err != nil || base.Status != Optimal {
			t.Fatalf("seed %d: base solve: %v status %v", seed, err, base.Status)
		}
		bas := r.Basis()

		muts := randomForkMutations(rng, p, 6)
		// Reference answers from an independent instance so the parent
		// under test stays untouched between base solve and forking.
		ref := NewRevised(p.clone())
		if _, err := ref.SolveFrom(nil); err != nil {
			t.Fatalf("seed %d: ref solve: %v", seed, err)
		}
		want := make([]Solution, len(muts))
		wantCold := make([]int, len(muts))
		for k, m := range muts {
			ref.ResetStats()
			want[k] = serialWhatIf(t, ref, bas, m)
			wantCold[k] = ref.Stats().ColdSolves
		}

		for k, m := range muts {
			f, err := r.Fork()
			if err != nil {
				t.Fatalf("seed %d: fork %d: %v", seed, k, err)
			}
			m.applyTo(f.Problem())
			got, err := f.SolveFrom(bas)
			if err != nil {
				t.Fatalf("seed %d: fork %d solve: %v", seed, k, err)
			}
			if got.Status != want[k].Status {
				t.Fatalf("seed %d: fork %d status %v, serial %v", seed, k, got.Status, want[k].Status)
			}
			if got.Status == Optimal && math.Abs(got.Objective-want[k].Objective) > objTol(want[k].Objective) {
				t.Fatalf("seed %d: fork %d obj %.12g, serial %.12g (Δ=%g)",
					seed, k, got.Objective, want[k].Objective, math.Abs(got.Objective-want[k].Objective))
			}
			// A fork may fall back cold only when the serial path does
			// too (e.g. the mutation is infeasible and the warm restart
			// abandons): forking itself must never cost warmth.
			if st := f.Stats(); st.ColdSolves > wantCold[k] {
				t.Fatalf("seed %d: fork %d went cold (%d cold solves, serial %d) — warmth was lost",
					seed, k, st.ColdSolves, wantCold[k])
			}
		}

		if got := r.Stats().Forks; got != len(muts) {
			t.Fatalf("seed %d: parent counted %d forks, want %d", seed, got, len(muts))
		}
		again, err := r.SolveFrom(bas)
		if err != nil {
			t.Fatalf("seed %d: parent re-solve: %v", seed, err)
		}
		if again.Status != Optimal || math.Abs(again.Objective-base.Objective) > objTol(base.Objective) {
			t.Fatalf("seed %d: parent disturbed by forks: base %.12g, after %.12g",
				seed, base.Objective, again.Objective)
		}
		for i := 0; i < p.NumConstraints(); i++ {
			if p.RHS(i) != r.Problem().RHS(i) {
				t.Fatalf("seed %d: fork mutated parent rhs[%d]", seed, i)
			}
		}
	}
}

// TestForkConcurrent runs many forks of one parent concurrently — the
// race detector proves the shared Factorization and frozen LU snapshot
// are read-only in practice, and each answer must still match its
// serial reference exactly as in the sequential test.
func TestForkConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomFeasibleProblem(rng, false)
	r := NewRevised(p)
	base, err := r.SolveFrom(nil)
	if err != nil || base.Status != Optimal {
		t.Fatalf("base solve: %v status %v", err, base.Status)
	}
	bas := r.Basis()

	const nForks = 32
	muts := randomForkMutations(rng, p, nForks)
	// Overlap: make the second half hit the same row as the first half,
	// with different targets, so forks contend on the same structures.
	for k := nForks / 2; k < nForks; k++ {
		muts[k].row = muts[k-nForks/2].row
		muts[k].col = -1
		muts[k].rhs = muts[k-nForks/2].rhs + 0.25
	}

	ref := NewRevised(p.clone())
	if _, err := ref.SolveFrom(nil); err != nil {
		t.Fatalf("ref solve: %v", err)
	}
	want := make([]Solution, nForks)
	for k, m := range muts {
		want[k] = serialWhatIf(t, ref, bas, m)
	}

	// Fork serially (the parent must be quiescent), solve concurrently.
	forks := make([]*Revised, nForks)
	for k := range forks {
		f, err := r.Fork()
		if err != nil {
			t.Fatalf("fork %d: %v", k, err)
		}
		forks[k] = f
	}

	var wg sync.WaitGroup
	errs := make([]string, nForks)
	for k := range forks {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			muts[k].applyTo(forks[k].Problem())
			got, err := forks[k].SolveFrom(bas)
			switch {
			case err != nil:
				errs[k] = err.Error()
			case got.Status != want[k].Status:
				errs[k] = "status mismatch"
			case got.Status == Optimal && math.Abs(got.Objective-want[k].Objective) > objTol(want[k].Objective):
				errs[k] = "objective mismatch"
			}
		}(k)
	}
	wg.Wait()
	for k, e := range errs {
		if e != "" {
			t.Fatalf("fork %d: %s", k, e)
		}
	}

	again, err := r.SolveFrom(bas)
	if err != nil || math.Abs(again.Objective-base.Objective) > objTol(base.Objective) {
		t.Fatalf("parent disturbed: base %.12g, after %.12g (err %v)", base.Objective, again.Objective, err)
	}
}

// TestForkOfFork nests forks: a fork that has solved is itself a valid
// parent, and grandchildren answer like children.
func TestForkOfFork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomFeasibleProblem(rng, false)
	r := NewRevised(p)
	if _, err := r.SolveFrom(nil); err != nil {
		t.Fatalf("base solve: %v", err)
	}
	bas := r.Basis()
	f, err := r.Fork()
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if _, err := f.SolveFrom(bas); err != nil {
		t.Fatalf("fork solve: %v", err)
	}
	m := randomForkMutations(rng, p, 1)[0]
	ref := NewRevised(p.clone())
	if _, err := ref.SolveFrom(nil); err != nil {
		t.Fatalf("ref solve: %v", err)
	}
	want := serialWhatIf(t, ref, bas, m)

	g, err := f.Fork()
	if err != nil {
		t.Fatalf("fork of fork: %v", err)
	}
	m.applyTo(g.Problem())
	got, err := g.SolveFrom(bas)
	if err != nil {
		t.Fatalf("grandchild solve: %v", err)
	}
	if got.Status != want.Status || (got.Status == Optimal &&
		math.Abs(got.Objective-want.Objective) > objTol(want.Objective)) {
		t.Fatalf("grandchild obj %.12g status %v, serial %.12g %v",
			got.Objective, got.Status, want.Objective, want.Status)
	}
}

// forkAnswer answers m on c the way the scheduling service's what-if
// body does — pose, solve, retract, Rewind — and reports the verdict, the
// optimum bit for bit and what the solve cost.
func forkAnswer(t *testing.T, c *Revised, bas *Basis, m forkMutation) rewindResult {
	t.Helper()
	c.ResetStats()
	undo := m.applyTo(c.Problem())
	sol, err := c.SolveFrom(bas)
	if err != nil {
		t.Fatal(err)
	}
	res := rewindResult{status: sol.Status, obj: sol.Objective, x: slices.Clone(sol.X), cost: countersOf(c.Stats())}
	undo()
	c.Rewind()
	return res
}

// reforkPaths are the states TestReforkMatchesFork reforks a fork from.
var reforkPaths = []string{"parent unmoved", "parent committed", "fork fell back cold", "fork not rewound"}

// TestReforkMatchesFork pins Refork to Fork: over random sequences of
// what-ifs, a fork kept across them and brought onto the parent's state in
// place answers every what-if with the verdict, the bits of X and the
// pivots, flips, refactorizations and weight resets a fresh Fork does — when
// the parent did not move (the fork keeps its refresh state), after the
// parent committed (Rebase, re-solve; Refork freezes it anew), after the
// fork itself fell back cold and after a solve on the fork that nothing
// rewound. Refork zeroes the fork's counters and never counts as a fork.
func TestReforkMatchesFork(t *testing.T) {
	paths := make(map[string]int)
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomFeasibleProblem(rng, seed%2 == 1)
		if seed%4 == 3 { // long enough for eta files and refactorizations
			p = whatIfLP(rng, 60, 40)
		}
		r := NewRevised(p)
		if sol, err := r.SolveFrom(nil); err != nil || sol.Status != Optimal {
			t.Fatalf("seed %d: base solve: %v status %v", seed, err, sol.Status)
		}
		bas := r.Basis()
		f, err := r.Fork()
		if err != nil {
			t.Fatal(err)
		}
		forks := 1
		for step := 0; step < 6; step++ {
			muts := randomForkMutations(rng, p, 3)
			path := reforkPaths[rng.Intn(len(reforkPaths))]
			switch path {
			case "parent committed":
				m := randomForkMutations(rng, p, 1)[0]
				if m.col >= 0 { // move the lower bound too
					m.lb = rng.Float64()
					m.ub += m.lb
				}
				m.applyTo(p)
				r.Rebase()
				sol, err := r.SolveFrom(bas)
				if err != nil {
					t.Fatalf("seed %d step %d: commit: %v", seed, step, err)
				}
				if sol.Status == Optimal {
					bas = r.Basis()
				}
			case "fork fell back cold":
				f.budgetOverride = 1
				fell := 0
				for _, m := range muts {
					forkAnswer(t, f, bas, m)
					fell += f.Stats().ColdFallbacks
				}
				f.budgetOverride = 0
				if fell == 0 {
					path = "parent unmoved"
				}
			case "fork not rewound":
				undo := muts[0].applyTo(f.Problem())
				if _, err := f.SolveFrom(bas); err != nil {
					t.Fatal(err)
				}
				undo()
			}
			paths[path]++
			if err := r.Refork(f); err != nil {
				t.Fatalf("seed %d step %d (%s): refork: %v", seed, step, path, err)
			}
			if f.Stats() != (Stats{}) {
				t.Fatalf("seed %d step %d (%s): Refork left counters %+v", seed, step, path, f.Stats())
			}
			fresh, err := r.Fork()
			if err != nil {
				t.Fatal(err)
			}
			forks++
			for k, m := range muts {
				got, want := forkAnswer(t, f, bas, m), forkAnswer(t, fresh, bas, m)
				if !got.equal(want) {
					t.Fatalf("seed %d step %d (%s) what-if %d: reforked status %v obj %v cost %+v, fresh fork status %v obj %v cost %+v",
						seed, step, path, k, got.status, got.obj, got.cost, want.status, want.obj, want.cost)
				}
			}
		}
		if got := r.Stats().Forks; got != forks {
			t.Fatalf("seed %d: parent counted %d forks, want %d (a Refork is not one)", seed, got, forks)
		}
	}
	for _, path := range reforkPaths {
		if paths[path] == 0 {
			t.Errorf("no step took the %q path", path)
		}
	}
	t.Logf("steps per path: %v", paths)
}

// TestForkBeforeSolve pins the error contract: an instance that has
// never solved has no state worth forking.
func TestForkBeforeSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomFeasibleProblem(rng, false)
	r := NewRevised(p)
	if _, err := r.Fork(); err == nil {
		t.Fatal("Fork before first solve should error")
	}
}

// TestForkFrozenSnapshotReuse pins the O(m) promise's amortized half:
// forking K times off one quiescent parent refactorizes it at most once
// — only to fold a non-empty eta file into the snapshot — and not at
// all once its factor is clean; the parent and every fork then read the
// same frozen arrays.
func TestForkFrozenSnapshotReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomFeasibleProblem(rng, false)
	r := NewRevised(p)
	if _, err := r.SolveFrom(nil); err != nil {
		t.Fatalf("base solve: %v", err)
	}
	for _, round := range []string{"after a solve", "already frozen"} {
		want := 0
		if len(r.fac.etas) > 0 {
			want = 1
		}
		before := r.Stats().Refactorizations
		forks := make([]*Revised, 5)
		for k := range forks {
			f, err := r.Fork()
			if err != nil {
				t.Fatalf("%s: fork %d: %v", round, k, err)
			}
			forks[k] = f
		}
		if got := r.Stats().Refactorizations - before; got != want {
			t.Fatalf("%s: %d forks refactorized the parent %d times, want %d", round, len(forks), got, want)
		}
		if len(r.fac.etas) != 0 || !r.fac.borrowed {
			t.Fatalf("%s: parent factor not clean and borrowed (etas %d, borrowed %v)", round, len(r.fac.etas), r.fac.borrowed)
		}
		for k, f := range forks {
			if !f.fac.borrowed || &f.fac.uDiag[0] != &r.fac.uDiag[0] {
				t.Fatalf("%s: fork %d does not borrow the parent's frozen arrays", round, k)
			}
			if f.Stats().Refactorizations != 0 {
				t.Fatalf("%s: fork %d was born with a refactorization", round, k)
			}
		}
	}
}
