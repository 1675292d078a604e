package lp

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPhaseTimesAccounting pins the wall-time-per-phase plumbing: a
// solve that pivots must charge time to the FTRAN, BTRAN, pricing and
// ratio-test phases, warm restarts must keep accumulating, and Add
// must aggregate the breakdown like every other counter.
func TestPhaseTimesAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := whatIfLP(r, 120, 80)
	rev := NewRevised(p)
	sol, err := rev.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	basis := rev.Basis()
	ph := rev.Stats().Phase
	if ph.FTRANNanos <= 0 || ph.BTRANNanos <= 0 || ph.PricingNanos <= 0 || ph.RatioTestNanos <= 0 {
		t.Fatalf("cold solve left phases unaccounted: %+v", ph)
	}
	// A warm restart after a mutation accumulates on top.
	p.SetRHS(0, p.RHS(0)*0.5)
	if _, err := rev.SolveFrom(basis); err != nil {
		t.Fatal(err)
	}
	ph2 := rev.Stats().Phase
	if ph2.FTRANNanos < ph.FTRANNanos || ph2.PricingNanos < ph.PricingNanos {
		t.Fatalf("phase totals went backwards: %+v -> %+v", ph, ph2)
	}

	// Aggregation.
	var agg Stats
	agg.Add(rev.Stats())
	agg.Add(rev.Stats())
	if want := 2 * ph2.FTRANNanos; agg.Phase.FTRANNanos != want {
		t.Fatalf("Add: ftran %d, want %d", agg.Phase.FTRANNanos, want)
	}

	// The budget accessor the health conditions divide by.
	if rev.WarmPivotBudget() <= 0 {
		t.Fatal("WarmPivotBudget must be positive")
	}
}

// TestWarmWhatIfZeroAlloc is the guard the observability layer must
// not regress: a warm what-if on lp.NewRevised, the eta-file factor the
// daemon runs — mutate, SolveFrom the committed basis, undo, Rewind —
// stays at 0 allocs/op with phase timing and solver
// counters enabled (time.Now does not allocate; this test exists to keep
// it that way if the timing code is ever restructured). The runs measured
// include what-ifs that pivot and what-ifs that do not, so both the
// journal's lists and the Rewind that undoes them are under the bound, and
// they start right after a commit moved the frozen state, so pivots the
// emptied path cache misses file their entries in storage earlier frozen
// states left. Each what-if is asked twice: the second asking is served
// its first pivot and files the next one's entry under it, a path a level
// deep.
func TestWarmWhatIfZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := whatIfLP(r, 120, 80)
	rev := NewRevised(p)
	sol, err := rev.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	basis := rev.Basis()
	rhs0 := make([]float64, p.NumConstraints())
	for i := range rhs0 {
		rhs0[i] = p.RHS(i)
	}
	committed := slices.Clone(rhs0)
	// commit moves the committed rhs to rhs0 scaled by 1 + by·(i mod 3),
	// solves there and freezes: a new frozen state.
	i := 0
	commit := func(by float64) {
		for row := range committed {
			committed[row] = rhs0[row] * (1 + by*float64(row%3))
			p.SetRHS(row, committed[row])
		}
		if _, err := rev.SolveFrom(basis); err != nil {
			t.Fatal(err)
		}
		if err := rev.Freeze(); err != nil {
			t.Fatal(err)
		}
		i = 0
	}
	commit(0)
	pivoting, still, filing, deep := 0, 0, 0, 0
	whatIf := func() {
		row := i / 2 % p.NumConstraints()
		p.SetRHS(row, committed[row]*0.8)
		before, filed := rev.stats.Pivots, len(rev.paths.ents)
		if _, err := rev.SolveFrom(basis); err != nil {
			t.Fatal(err)
		}
		if rev.stats.Pivots != before {
			pivoting++
		} else {
			still++
		}
		if len(rev.paths.ents) > filed {
			filing++
		}
		for _, e := range rev.paths.ents[filed:] {
			if e.parent >= 0 {
				deep++
				break
			}
		}
		p.SetRHS(row, committed[row])
		rev.Rewind()
		i++
	}
	// Prime before measuring: the first warm solves still grow the eta
	// arena, the ratio-test buffers and the path cache's storage to their
	// working size, on this frozen state and on a second one.
	for _, by := range []float64{0.1, 0} {
		for i < 4*p.NumConstraints() {
			whatIf()
		}
		commit(by)
	}
	pivoting, still, filing, deep = 0, 0, 0, 0
	allocs := testing.AllocsPerRun(50, whatIf)
	if allocs != 0 {
		t.Fatalf("warm what-if allocates %v per op, want 0", allocs)
	}
	t.Logf("measured %d what-ifs that pivoted and %d that did not; %d filed an entry, %d of them a level deep", pivoting, still, filing, deep)
	if pivoting == 0 || still == 0 {
		t.Fatalf("of the what-ifs measured %d pivoted and %d did not: the bound must hold on both paths", pivoting, still)
	}
	if filing < 2 || deep == 0 {
		t.Fatalf("%d of the runs filed an entry, %d a level deep: the bound must hold on cache misses after a Freeze, down a path too", filing, deep)
	}
	if st := rev.Stats(); st.ColdSolves != 1 || st.ColdFallbacks != 0 {
		t.Fatalf("the what-ifs measured were not warm: %d cold solves, %d cold fallbacks", st.ColdSolves, st.ColdFallbacks)
	}
}
