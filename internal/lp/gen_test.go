package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Generators and small helpers shared by this package's internal tests
// and, through export_test.go, by the external lp_test tests (which
// must live outside the package to import the lptest oracle).

// randomFeasibleProblem builds a random LP that is feasible by
// construction (the rhs is derived from a known nonnegative point x0)
// and bounded (a box row caps Σx). With degenerate=true it generates
// binding rows (zero slack at x0), duplicated rows and zero entries in
// x0 — the inputs that force degenerate pivots and exercise the
// Bland anti-cycling fallback in both backends.
func randomFeasibleProblem(rng *rand.Rand, degenerate bool) *Problem {
	nv := 1 + rng.Intn(10)
	p := New(nv)
	for j := 0; j < nv; j++ {
		if rng.Float64() < 0.8 {
			p.SetObjective(j, math.Round(rng.NormFloat64()*30)/10)
		}
	}
	x0 := make([]float64, nv)
	sum0 := 0.0
	for j := range x0 {
		if !degenerate || rng.Float64() > 0.3 {
			x0[j] = rng.Float64() * 5
		}
		sum0 += x0[j]
	}
	rows := 1 + rng.Intn(12)
	var prevTerms []Term
	var prevAx float64
	for i := 0; i < rows; i++ {
		if degenerate && prevTerms != nil && rng.Float64() < 0.25 {
			// Duplicate the previous row under a (possibly different)
			// relation: dependent rows, redundant constraints.
			switch rng.Intn(3) {
			case 0:
				p.AddConstraint(prevTerms, LE, prevAx+rng.Float64())
			case 1:
				p.AddConstraint(prevTerms, EQ, prevAx)
			default:
				p.AddConstraint(prevTerms, GE, prevAx-rng.Float64())
			}
			continue
		}
		var terms []Term
		ax := 0.0
		for j := 0; j < nv; j++ {
			if rng.Float64() < 0.6 {
				c := (0.1 + rng.Float64()*4.9)
				if rng.Float64() < 0.3 {
					c = -c
				}
				terms = append(terms, Term{Var: j, Coeff: c})
				ax += c * x0[j]
			}
		}
		if len(terms) == 0 {
			continue
		}
		slack := rng.Float64() * 3
		if degenerate && rng.Float64() < 0.5 {
			slack = 0 // binding at x0
		}
		switch Rel(rng.Intn(3)) {
		case LE:
			p.AddConstraint(terms, LE, ax+slack)
		case GE:
			p.AddConstraint(terms, GE, ax-slack)
		case EQ:
			p.AddConstraint(terms, EQ, ax)
		}
		prevTerms, prevAx = terms, ax
	}
	// Bounding box: keeps every instance bounded so both solvers must
	// report Optimal.
	box := make([]Term, nv)
	for j := range box {
		box[j] = Term{Var: j, Coeff: 1}
	}
	p.AddConstraint(box, LE, sum0+50)
	return p
}

// randomBoundedProblem builds a random LP that is feasible by
// construction — the rhs is derived from a known point x0 and every
// variable's box contains x0 — and bounded (a box row caps Σx). With
// degenerate=true it additionally generates binding bounds (lb or ub
// exactly at x0), fixed variables (lb == ub) and binding rows: the
// inputs that force degenerate and bound-flip pivots.
func randomBoundedProblem(rng *rand.Rand, degenerate bool) *Problem {
	nv := 1 + rng.Intn(10)
	p := New(nv)
	for j := 0; j < nv; j++ {
		if rng.Float64() < 0.8 {
			p.SetObjective(j, math.Round(rng.NormFloat64()*30)/10)
		}
	}
	x0 := make([]float64, nv)
	sum0 := 0.0
	for j := range x0 {
		if !degenerate || rng.Float64() > 0.3 {
			x0[j] = rng.Float64() * 5
		}
		sum0 += x0[j]
	}
	for j := 0; j < nv; j++ {
		switch rng.Intn(5) {
		case 0: // default [0, +Inf)
		case 1: // finite upper bound
			ub := x0[j] + rng.Float64()*3
			if degenerate && rng.Float64() < 0.5 {
				ub = x0[j] // binding at x0
			}
			p.SetVarBounds(j, 0, ub)
		case 2: // positive lower bound, unbounded above
			p.SetVarBounds(j, x0[j]*rng.Float64(), math.Inf(1))
		case 3: // full box around x0
			lb := x0[j] * rng.Float64()
			if degenerate && rng.Float64() < 0.5 {
				lb = x0[j]
			}
			p.SetVarBounds(j, lb, x0[j]+rng.Float64()*2)
		case 4: // fixed variable
			p.SetVarBounds(j, x0[j], x0[j])
		}
	}
	rows := 1 + rng.Intn(10)
	for i := 0; i < rows; i++ {
		var terms []Term
		ax := 0.0
		for j := 0; j < nv; j++ {
			if rng.Float64() < 0.6 {
				c := 0.1 + rng.Float64()*4.9
				if rng.Float64() < 0.3 {
					c = -c
				}
				terms = append(terms, Term{Var: j, Coeff: c})
				ax += c * x0[j]
			}
		}
		if len(terms) == 0 {
			continue
		}
		slack := rng.Float64() * 3
		if degenerate && rng.Float64() < 0.5 {
			slack = 0 // binding at x0
		}
		switch Rel(rng.Intn(3)) {
		case LE:
			p.AddConstraint(terms, LE, ax+slack)
		case GE:
			p.AddConstraint(terms, GE, ax-slack)
		case EQ:
			p.AddConstraint(terms, EQ, ax)
		}
	}
	// Bounding box: keeps every instance bounded so all solvers must
	// report Optimal.
	box := make([]Term, nv)
	for j := range box {
		box[j] = Term{Var: j, Coeff: 1}
	}
	p.AddConstraint(box, LE, sum0+50)
	return p
}

// mutateProblem applies a random warm-start-legal mutation batch:
// right-hand side perturbations and variable-bound rewrites (always
// keeping 0 <= lb <= ub so the mutation itself is valid; the program
// may well become infeasible, which both backends must then agree
// on).
func mutateProblem(rng *rand.Rand, p *Problem) {
	for i := range p.rows {
		if rng.Float64() < 0.4 {
			p.SetRHS(i, p.rows[i].rhs+rng.NormFloat64()*2)
		}
	}
	for j := 0; j < p.nvars; j++ {
		if rng.Float64() < 0.3 {
			lb := rng.Float64() * 2
			ub := lb + rng.Float64()*4
			switch rng.Intn(4) {
			case 0:
				ub = lb // fix the variable
			case 1:
				ub = math.Inf(1)
			}
			p.SetVarBounds(j, lb, ub)
		}
	}
}

func objTol(obj float64) float64 { return 1e-9 * (1 + math.Abs(obj)) }

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
