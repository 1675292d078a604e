package lp

import (
	"math"
	"math/rand"
	"testing"
)

// zeroPivotMutation applies one of the writes that decide what a start
// from the frozen state has to move, and names it.
func zeroPivotMutation(rng *rand.Rand, r *Revised, p *Problem) string {
	switch rng.Intn(6) {
	case 0:
		// A lower-bound shift at the same width on a column in several
		// rows: each of them drifts.
		for try := 0; try < 20; try++ {
			if j := rng.Intn(p.nvars); r.sp.colPtr[j+1]-r.sp.colPtr[j] >= 2 {
				d := 0.1 + rng.Float64()
				p.SetVarBounds(j, p.lb[j]+d, p.ub[j]+d)
				return "lb shift"
			}
		}
	case 1:
		// The box of a column resting at its upper bound: it moves with
		// the bound, or leaves it (fixed, or no upper bound any more).
		if n := len(r.frozen.upper); n > 0 {
			j := r.frozen.upper[rng.Intn(n)]
			lb, ub := p.lb[j], p.ub[j]
			switch rng.Intn(3) {
			case 0:
				p.SetVarBounds(int(j), lb, lb+(ub-lb)*(0.5+rng.Float64()))
			case 1:
				p.SetVarBounds(int(j), lb, lb)
			default:
				p.SetVarBounds(int(j), lb, math.Inf(1))
			}
			return "at-upper box"
		}
	case 2:
		// The rhs of a row whose slack is basic: B⁻¹Δb moves that slack
		// alone.
		for try := 0; try < 20; try++ {
			i := rng.Intn(len(p.rows))
			if sc := r.slackOfRow[i]; sc >= 0 && r.inBasis[sc] {
				p.SetRHS(i, p.rows[i].rhs*(0.8+0.4*rng.Float64()))
				return "basic-slack rhs"
			}
		}
	case 3:
		i, j := rng.Intn(len(p.rows)), rng.Intn(p.nvars)
		p.SetRHS(i, p.rows[i].rhs)
		p.SetVarBounds(j, p.lb[j], p.ub[j])
		return "equal writes"
	case 4:
		j := rng.Intn(p.nvars)
		p.SetVarBounds(j, 1e6, math.Inf(1))
		return "lb 1e6"
	}
	i := rng.Intn(len(p.rows))
	p.SetRHS(i, p.rows[i].rhs*(0.5+rng.Float64()))
	return "rhs"
}

// TestZeroPivotStateMatchesFull: the first solve after a Freeze or a
// Rewind starts from the state the Freeze recorded plus B⁻¹ of what moved
// since (startFrozen). Over network-shaped and boxed instances, through
// lower-bound shifts on columns in several rows, boxes of frozen
// at-upper columns moved or dropped, rhs changes on rows whose slack is
// basic, equal-value writes, Infeasible verdicts and Rewinds after a cold
// fallback (which take the full path, and leave a full refresh that
// rebuilds the drift record by comparison), every such solve leaves xb
// within 1e-9·(1+scale) of a full computeXB —
// the worst gap is printed — and the infeasibility set, scale, residue
// and entry verdict equal full recomputations exactly (warmAudit.start).
// A solve that then ends optimal without a refactorization, whether it
// pivoted or not, extracts X bit for bit as a full extraction would, and
// equal to the frozen X outside the columns Moved names, each named once,
// and every row whose basic value or basic column moved off the start is
// among the rows it counts; one that refactorized names none. Every
// answer is a cold solve's. No clock is read.
func TestZeroPivotStateMatchesFull(t *testing.T) {
	a := &warmAudit{t: t}
	kinds := map[string]int{}
	var light, nothingMoved, pivoted, refactored, infeasible, fallbacks int
	x := make([]float64, 64)
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		p := whatIfLP(rng, 30, 20)
		if seed%2 == 1 {
			p = randomBoundedProblem(rng, seed%4 == 1)
		}
		r := NewRevised(p)
		a.attach(r)
		sol, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: cold solve: %v", seed, err)
		}
		if sol.Status != Optimal {
			continue // a column in no row with a positive cost
		}
		bas := r.Basis()
		if err := r.Freeze(); err != nil {
			t.Fatal(err)
		}
		committed := saveProblem(p)
		solve := func(where string) Solution {
			t.Helper()
			starts := a.starts
			sol, err := r.SolveFrom(bas)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, where, err)
			}
			if a.starts != starts+1 {
				t.Fatalf("seed %d %s: the first solve after a Rewind did not start from the frozen state", seed, where)
			}
			want, err := NewRevised(p.clone()).SolveFrom(nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != want.Status || sol.Status == Optimal && math.Abs(sol.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
				t.Fatalf("seed %d %s: %v %.12g, a cold solve %v %.12g", seed, where, sol.Status, sol.Objective, want.Status, want.Objective)
			}
			return sol
		}
		for k := 0; k < 16; k++ {
			kind := zeroPivotMutation(rng, r, p)
			kinds[kind]++
			before := r.stats
			sol := solve(kind)
			if sol.Status == Infeasible {
				infeasible++
			}
			moves := r.stats.Pivots + r.stats.BoundFlips - before.Pivots - before.BoundFlips
			base, rows, cols := r.Moved()
			if r.stats.Refactorizations != before.Refactorizations {
				refactored++
				if base != nil {
					t.Fatalf("seed %d %s: a solve that refactorized answers as the frozen X patched", seed, kind)
				}
			}
			if base != nil {
				if moves == 0 {
					light++
				} else {
					pivoted++
				}
				if rows == 0 && len(cols) == 0 {
					nothingMoved++
				}
				for i := range r.xb {
					if listed := r.movedRows.has(i); !listed && (!sameBits(r.xb[i], r.frozen.start.xb[i]) || r.basis[i] != r.frozen.basis[i]) {
						t.Fatalf("seed %d %s: row %d moved off the start but is not among the %d rows Moved counts", seed, kind, i, rows)
					}
				}
				x = append(x[:0], make([]float64, r.nstruct)...)
				r.extractX(x)
				written := map[int32]bool{}
				for _, j := range cols {
					if written[j] {
						t.Fatalf("seed %d %s: Moved names column %d twice", seed, kind, j)
					}
					written[j] = true
				}
				for j := range x {
					if !sameBits(sol.X[j], x[j]) {
						t.Fatalf("seed %d %s: patched X[%d] = %v, a full extraction %v", seed, kind, j, sol.X[j], x[j])
					}
					if !written[int32(j)] && !sameBits(sol.X[j], base.X[j]) {
						t.Fatalf("seed %d %s: X[%d] = %v moved off the frozen %v but is not among the columns Moved names", seed, kind, j, sol.X[j], base.X[j])
					}
				}
			}
			if k%4 != 3 {
				committed.restore(p)
			} // else: rewound onto what the round left
			r.Rewind()
		}
		committed.restore(p)

		// A cold fallback rewrites the row signs and drops the drift record:
		// the Rewind after it takes the full path and leaves a full refresh,
		// which rebuilds the record, to the next solve.
		r.Rewind()
		for n := 0; n < 4; n++ {
			mutateProblem(rng, p)
		}
		r.budgetOverride = 1
		before := r.stats.ColdFallbacks
		if _, err := r.SolveFrom(bas); err != nil {
			t.Fatal(err)
		}
		r.budgetOverride = 0
		committed.restore(p)
		r.Rewind()
		if r.stats.ColdFallbacks > before {
			fallbacks++
			if drifting := !r.driftRows.whole(); r.rhsOK || drifting {
				t.Fatalf("seed %d: rewound after a cold fallback onto rhsOK %v, a listing drift journal %v: the next refresh must be full", seed, r.rhsOK, drifting)
			}
		}
		solve("rewound after a fallback")
	}
	t.Logf("%d starts (%d moved xb, %d patched without a pivot, %d of those moved nothing, %d patched after pivots, %d refactorized, %d Infeasible), %d cold fallbacks; worst |xb − computeXB's| %.3g·(1+scale); writes %v",
		a.starts, a.moved, light, nothingMoved, pivoted, refactored, infeasible, fallbacks, a.worst, kinds)
	for _, kind := range []string{"lb shift", "at-upper box", "basic-slack rhs", "equal writes", "lb 1e6", "rhs"} {
		if kinds[kind] < 20 {
			t.Fatalf("only %d %q rounds: the test lost its reach (%v)", kinds[kind], kind, kinds)
		}
	}
	if a.moved < 100 || light < 100 || nothingMoved == 0 || pivoted < 100 || infeasible < 20 || fallbacks < 20 {
		t.Fatal("the rounds reached too little")
	}
}
