package lp_test

import (
	"fmt"
	"math"
	"testing"

	. "repro/internal/lp"
)

// fuzzBytes hands out the fuzzer's input one byte at a time, zeros once
// it runs dry, so every input decodes to some program.
type fuzzBytes struct {
	data      []byte
	at        int
	perturbed bool // some cost carries a 1e-8 perturbation (see cost)
}

func (b *fuzzBytes) next() int {
	if b.at >= len(b.data) {
		return 0
	}
	v := int(b.data[b.at])
	b.at++
	return v
}

// bounds decodes one variable box: default [0, +Inf), finite upper
// only, positive lower with no upper, or a full box (possibly fixed).
func (b *fuzzBytes) bounds() (lb, ub float64) {
	switch b.next() % 4 {
	case 1:
		return 0, float64(b.next() % 9)
	case 2:
		return float64(b.next() % 4), math.Inf(1)
	case 3:
		lb = float64(b.next() % 4)
		return lb, lb + float64(b.next()%6)
	}
	return 0, math.Inf(1)
}

func (b *fuzzBytes) rhs() float64 { return float64(b.next()%25 - 8) }

// cost decodes one objective coefficient: a small integer, and for the
// top byte values the same integer plus a few 1e-8 — above the primal's
// optimality tolerance, below the dual's feasibility tolerance, the gap
// in which a Harris-style entering choice leaves work for warmSolve's
// safety net.
func (b *fuzzBytes) cost() float64 {
	v := b.next()
	c := float64(v%9 - 4)
	if v >= 243 {
		c += 1e-8 * float64(v-242)
		b.perturbed = true
	}
	return c
}

// perturbedObjTol is how far the objectives of two optimal answers for p
// may lie apart when p's costs carry cost's perturbations, which sit below
// the revised simplex's dual tolerance δ = 1e-7·(1+max_j |c_j|). Each
// solver stops at a basis whose reduced costs d are wrong-signed by at most
// its own threshold: δ for lp.Revised, 1e-9 for the dense oracle. Write
// z = (x, Ax) for a point with its row activities. Any feasible z' then
// scores c·x' = c·x + Σ_{j nonbasic} d_j·(z'_j − z_j) against a stopping
// point z, and each term is at most δ·|z'_j − z_j|. Applied to each answer
// with the other as z':
//
//	|c·x_got − c·x_want| ≤ 1e-9·(1+|c·x_want|) + δ·(‖x_got − x_want‖₁ + ‖A·(x_got − x_want)‖₁)
//
// The first term is objTol, the roundoff allowance integer-cost programs
// keep alone. The second is at most δ times the two optima's size
// ‖z_got‖₁ + ‖z_want‖₁.
func perturbedObjTol(p *Problem, got, want Solution) float64 {
	costScale, dist := 0.0, 0.0
	for j := 0; j < p.NumVars(); j++ {
		costScale = math.Max(costScale, math.Abs(p.Objective(j)))
		dist += math.Abs(got.X[j] - want.X[j])
	}
	for i := 0; i < p.NumConstraints(); i++ {
		terms, _, _ := p.Constraint(i)
		row := 0.0
		for _, tm := range terms {
			row += tm.Coeff * (got.X[tm.Var] - want.X[tm.Var])
		}
		dist += math.Abs(row)
	}
	return ObjTol(want.Objective) + 1e-7*(1+costScale)*dist
}

// problem decodes a small LP with small integer data: up to 5
// variables with mixed finite/infinite bounds, up to 6 rows of mixed
// <=, ==, >= relations. Nothing makes it feasible or bounded — all
// three verdicts are reachable.
func (b *fuzzBytes) problem() *Problem {
	nv := 1 + b.next()%5
	m := 1 + b.next()%6
	p := New(nv)
	for j := 0; j < nv; j++ {
		p.SetObjective(j, b.cost())
		lb, ub := b.bounds()
		p.SetVarBounds(j, lb, ub)
	}
	for i := 0; i < m; i++ {
		rel := Rel(b.next() % 3)
		var terms []Term
		for j := 0; j < nv; j++ {
			if c := b.next()%7 - 3; c != 0 {
				terms = append(terms, Term{Var: j, Coeff: float64(c)})
			}
		}
		p.AddConstraint(terms, rel, b.rhs())
	}
	return p
}

// FuzzSolveVsOracle is the differential fuzz of the production solver:
// a byte-driven small bounded LP is solved cold by Revised, then put
// through a byte-driven sequence of up to six warm steps — each mutates
// one right-hand side and one variable box and re-solves from the
// carried basis — with a Freeze after the first warm solve and a Rewind
// before a byte-chosen later one, then up to three steps that write
// back the bits a row and a box already hold or shift a box's lower
// bound, each maybe after a Rewind, then maybe a refork step: a fork
// taken at the Freeze answers a what-if, is reforked onto the parent's
// final state (Revised.Refork) and answers a second what-if there with the
// verdict and objective bits of a fresh fork. After every Rewind the
// solve state must be the frozen copy (CheckRewound). Every answer must
// match the lptest oracle on verdict and, when optimal, objective to 1e-9, or to
// perturbedObjTol when a cost carries a perturbation. The seed
// corpus (testdata/fuzz/FuzzSolveVsOracle: one file per cold/warm
// verdict pair and warm path, then the seq-* files, one per path a
// sequence reaches — a zero-pivot warm solve, the safety net falling
// through to the primal, an Infeasible verdict followed by a rewound
// Optimal, a cold fallback in mid-sequence, a zero-pivot solve after
// equal writes, a lower-bound shift on a column in several rows that the
// dual pivots through, one after a Rewind, one that ends Infeasible; and
// the seq-start-* files, one per kind of drift a solve from the frozen
// start adds up: a lower-bound shift on a column in several rows, the
// box of a frozen at-upper column, the rhs of a row whose slack is basic,
// equal writes, and an Infeasible verdict from that start; and
// seq-rewind-after-cold-fallback, whose Rewind takes the full path and
// leaves a full refresh; seq-refork-after-commit, whose refork follows
// a parent that solved past the fork's snapshot; and
// perturbed-cost-oracle-stops-short, where the oracle stops 2e-8 below the
// revised optimum on a surplus column priced under its 1e-9 threshold)
// runs as a plain test under `go test`; `go test -fuzz=FuzzSolveVsOracle
// ./internal/lp` explores further.
func FuzzSolveVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data}
		p := b.problem()
		rewind := func(c *Revised, label string) {
			t.Helper()
			c.Rewind()
			if err := c.CheckRewound(); err != nil {
				t.Fatalf("%s: after Rewind: %v", label, err)
			}
		}
		check := func(q *Problem, sol Solution, label string) {
			t.Helper()
			if !b.perturbed {
				checkOracle(t, q, sol, label)
				return
			}
			checkOracleWithin(t, q, sol, label, func(want Solution) float64 { return perturbedObjTol(q, sol, want) })
		}
		r := NewRevised(p)
		sol, err := r.SolveFrom(nil)
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		check(p, sol, "cold")
		bas := r.Basis()

		warmStep := func(label string) {
			p.SetRHS(b.next()%p.NumConstraints(), b.rhs())
			j := b.next() % p.NumVars()
			lb, ub := b.bounds()
			p.SetVarBounds(j, lb, ub)
			if sol, err = r.SolveFrom(bas); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(p, sol, label)
			bas = r.Basis()
		}
		warmStep("warm")
		if err := r.Freeze(); err != nil {
			t.Fatalf("freeze: %v", err)
		}
		f, err := r.Fork() // for the refork step at the end
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		// Up to five more steps; the solver (not the problem) is rewound
		// to the frozen state before step rewindAt, if there is one.
		more, rewindAt := b.next()%6, b.next()%6
		for k := 0; k < more; k++ {
			label := fmt.Sprintf("warm %d", k+2)
			if k == rewindAt {
				label += " (rewound)"
				rewind(r, label)
			}
			warmStep(label)
		}
		// Then up to three writes the solver's change list must see
		// through: rewriting a row's rhs and a variable's box with the
		// bits they hold, or shifting a box up by 1–3 at its width, which
		// moves the lower-bound shift of every row the column is in —
		// each maybe after a Rewind. (The corpus files from before these
		// steps existed run dry first and take none.)
		extra := b.next() % 4
		for k := 0; k < extra; k++ {
			mode, i, j := b.next(), b.next()%p.NumConstraints(), b.next()%p.NumVars()
			label := fmt.Sprintf("extra %d", k+1)
			if mode&2 != 0 {
				label += " (rewound)"
				rewind(r, label)
			}
			lb, ub := p.VarBounds(j)
			if mode&1 == 0 {
				p.SetRHS(i, p.RHS(i))
				p.SetVarBounds(j, lb, ub)
				label += ": equal writes"
			} else {
				d := float64(1 + b.next()%3)
				p.SetVarBounds(j, lb+d, ub+d)
				label += ": lower bound shifted"
			}
			if sol, err = r.SolveFrom(bas); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(p, sol, label)
			bas = r.Basis()
		}
		// Then maybe a refork: the fork taken at the Freeze answers a
		// what-if (a row's rhs and a box, retracted and rewound after),
		// Refork brings it onto r's state as the steps above left it, and
		// there it answers a second what-if as a fresh fork does.
		if b.next()%2 == 0 {
			return
		}
		whatIf := func() (i int, rhs float64, j int, lb, ub float64) {
			i, rhs, j = b.next()%p.NumConstraints(), b.rhs(), b.next()%p.NumVars()
			lb, ub = b.bounds()
			return i, rhs, j, lb, ub
		}
		solveOn := func(c *Revised, i int, rhs float64, j int, lb, ub float64, label string) Solution {
			q := c.Problem()
			oldRHS := q.RHS(i)
			oldLb, oldUb := q.VarBounds(j)
			q.SetRHS(i, rhs)
			q.SetVarBounds(j, lb, ub)
			sol, err := c.SolveFrom(bas)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(q, sol, label)
			q.SetRHS(i, oldRHS)
			q.SetVarBounds(j, oldLb, oldUb)
			rewind(c, label)
			return sol
		}
		i, rhs, j, lb, ub := whatIf()
		solveOn(f, i, rhs, j, lb, ub, "fork")
		if err := r.Refork(f); err != nil {
			t.Fatalf("refork: %v", err)
		}
		g, err := r.Fork()
		if err != nil {
			t.Fatalf("fresh fork: %v", err)
		}
		i, rhs, j, lb, ub = whatIf()
		got := solveOn(f, i, rhs, j, lb, ub, "reforked")
		want := solveOn(g, i, rhs, j, lb, ub, "fresh fork")
		if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("reforked: %v %v, fresh fork %v %v", got.Status, got.Objective, want.Status, want.Objective)
		}
	})
}
