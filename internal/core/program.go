package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
)

// This file writes linear program (7) down once: the α variable layout,
// the objective rows and the row families (7b)-(7e), as builders the
// two encodings assemble. The α-space encoding (Relaxed, LexMaxMin's
// rounds) eliminates β and is what the one-shot solves of the §6 sweeps
// use; the explicit (α, β) encoding (Model) keeps β as columns for
// everything that bounds, pins or branches on it. Which one a caller
// gets follows from whether it needs β as a variable, not from an
// option; addAlphaLinkRows says why the two agree.

// RelaxedSolution is an optimum of program (7) with β's integrality
// relaxed — the paper's "LP" comparator, an upper bound on the
// mixed-integer optimum, and the point every §5.2 heuristic rounds.
// Beta[k][l] is the fractional connection count β̃_{k,l}: the LP's value
// under the explicit encoding, α̃_{k,l}/bw_min(k,l) under the α-space
// one, and 0 where the route carries no β variable (the diagonal,
// missing routes, and routes that cross no backbone link).
type RelaxedSolution struct {
	Alpha     [][]float64
	Beta      [][]float64
	Objective float64

	cells []float64        // the block both tables are cut from: α row-major, then β
	base  *RelaxedSolution // see Patched
	moved []int32
}

// newRelaxedSolution returns the all-zero solution for K clusters. Both
// tables are cut from one block of cells, so a solve's extraction costs
// the same few allocations whatever K is.
func newRelaxedSolution(K int) *RelaxedSolution {
	cells := make([]float64, 2*K*K)
	rows := make([][]float64, 2*K)
	for i := range rows {
		rows[i] = cells[i*K : (i+1)*K : (i+1)*K]
	}
	return &RelaxedSolution{Alpha: rows[:K:K], Beta: rows[K:], cells: cells}
}

// Patched reports what a solution Model.Solution returned was
// derived from: base is the optimum of the model's frozen state (see
// Model.Freeze), and s equals it outside cells, ascending cell numbers —
// α_{k,l} is cell k·K+l, β_{k,l} cell K²+k·K+l. A zero-pivot what-if
// answers with its base itself (no cells) or a copy of it patched at the
// cells that moved. base is nil for a solution extracted whole. Either
// way the tables are shared: read-only.
func (s *RelaxedSolution) Patched() (base *RelaxedSolution, cells []int32) {
	return s.base, s.moved
}

// MostFractional returns the β route whose relaxed value is farthest
// from an integer (the first such route in row-major order on a tie),
// or ok=false when every β is integral within tol — the branch
// selection rule of the exact solver.
func (s *RelaxedSolution) MostFractional(tol float64) (Pair, bool) {
	bestFrac := tol
	var bestPair Pair
	found := false
	for k, row := range s.Beta {
		for l, v := range row {
			if frac := math.Abs(v - math.Round(v)); frac > bestFrac {
				bestFrac = frac
				bestPair = Pair{k, l}
				found = true
			}
		}
	}
	return bestPair, found
}

var errUnbounded = errors.New("core: relaxation unbounded (model bug)")

// verdict maps a solve's status onto the relaxation's, under either
// encoding: infeasible is an answer (false, nil); unbounded cannot
// happen over finite capacities and is reported as a bug.
func verdict(sol lp.Solution) (feasible bool, err error) {
	switch sol.Status {
	case lp.Infeasible:
		return false, nil
	case lp.Unbounded:
		return false, errUnbounded
	}
	return true, nil
}

// nonneg clamps LP roundoff below zero.
func nonneg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// alphaLayout is the α half of every encoding's variable layout: one LP
// column per ordered pair (k, l) with a route — the diagonal, local
// computation, always has one — numbered row-major from 0. Whatever
// else an encoding needs (β columns, MAXMIN's level t) follows, with t
// last.
type alphaLayout struct {
	vars []Pair  // column i carries α of vars[i]
	col  [][]int // col[k][l] is α_{k,l}'s column, -1 where C^k has no route to C^l
}

func (pr *Problem) alphaLayout() alphaLayout {
	K := pr.K()
	lay := alphaLayout{col: make([][]int, K)}
	cells := make([]int, K*K)
	for k := 0; k < K; k++ {
		lay.col[k] = cells[k*K : (k+1)*K]
		for l := 0; l < K; l++ {
			lay.col[k][l] = -1
			if k == l || pr.Platform.Route(k, l).Exists {
				lay.col[k][l] = len(lay.vars)
				lay.vars = append(lay.vars, Pair{k, l})
			}
		}
	}
	return lay
}

// appTerms appends coeff·α_k = coeff·Σ_l α_{k,l} (Equation 7a) to terms.
func (lay alphaLayout) appTerms(terms []lp.Term, k int, coeff float64) []lp.Term {
	for _, c := range lay.col[k] {
		if c >= 0 {
			terms = append(terms, lp.Term{Var: c, Coeff: coeff})
		}
	}
	return terms
}

// addLE adds Σ terms ≤ rhs and returns its row index, or adds nothing
// and returns -1 when no variable takes part.
func addLE(prob *lp.Problem, terms []lp.Term, rhs float64) int {
	if len(terms) == 0 {
		return -1
	}
	return prob.AddConstraint(terms, lp.LE, rhs)
}

// addLevelRow adds t − π_k·α_k ≤ 0, application k's share of Equation
// (6): the common level t (prob's last column) cannot exceed its payoff.
func (pr *Problem) addLevelRow(prob *lp.Problem, lay alphaLayout, k int) {
	t := lp.Term{Var: prob.NumVars() - 1, Coeff: 1}
	prob.AddConstraint(lay.appTerms([]lp.Term{t}, k, -pr.Payoffs[k]), lp.LE, 0)
}

// addObjective installs obj: SUM as the weight π_k on every α_{k,l}
// (Equation 5, no row); MAXMIN as "maximize t" under one level row per
// application with π_k > 0.
func (pr *Problem) addObjective(prob *lp.Problem, lay alphaLayout, obj Objective) error {
	switch obj {
	case SUM:
		for i, v := range lay.vars {
			prob.SetObjective(i, pr.Payoffs[v.K])
		}
	case MAXMIN:
		prob.SetObjective(prob.NumVars()-1, 1)
		positive := false
		for k, pi := range pr.Payoffs {
			if pi > 0 {
				positive = true
				pr.addLevelRow(prob, lay, k)
			}
		}
		if !positive {
			return fmt.Errorf("core: MAXMIN objective with no positive payoff")
		}
	default:
		return fmt.Errorf("core: unknown objective %v", obj)
	}
	return nil
}

// addClusterRows adds (7b), one row per cluster's computing speed, then
// (7c), one per cluster's gateway, and returns each cluster's row in
// the two families (-1 where it has none) — the handles Model's
// capacity mutators write through.
func (pr *Problem) addClusterRows(prob *lp.Problem, lay alphaLayout) (speedRow, gatewayRow []int) {
	K := pr.K()
	pl := pr.Platform
	speedRow, gatewayRow = make([]int, K), make([]int, K)
	var terms []lp.Term
	for l := 0; l < K; l++ {
		terms = terms[:0]
		for k := 0; k < K; k++ {
			if c := lay.col[k][l]; c >= 0 {
				terms = append(terms, lp.Term{Var: c, Coeff: 1})
			}
		}
		speedRow[l] = addLE(prob, terms, pl.Clusters[l].Speed)
	}
	for k := 0; k < K; k++ {
		terms = terms[:0]
		for l := 0; l < K; l++ {
			if l == k {
				continue
			}
			if c := lay.col[k][l]; c >= 0 {
				terms = append(terms, lp.Term{Var: c, Coeff: 1})
			}
			if c := lay.col[l][k]; c >= 0 {
				terms = append(terms, lp.Term{Var: c, Coeff: 1})
			}
		}
		gatewayRow[k] = addLE(prob, terms, pl.Clusters[k].Gateway)
	}
	return speedRow, gatewayRow
}

// addAlphaLinkRows adds (7d) and (7e) with β eliminated — the only rows
// the α-space encoding does not share with the explicit one. Per
// backbone link li:
//
//	Σ_{(k,l): li ∈ L_{k,l}} α_{k,l}/bw_min(k,l) ≤ max-connect(li)
//
// The β-elimination argument. β_{k,l} appears in two rows and not in the
// objective: (7e) α_{k,l} ≤ β_{k,l}·bw_min(k,l) is the only one a larger
// β helps, (7d) Σ β ≤ max-connect only charges for it. With integrality
// relaxed, any feasible (α, β) therefore stays feasible, at the same α
// and the same objective, when every β_{k,l} is lowered to
// α_{k,l}/bw_min(k,l): (7e) holds with equality and (7d) can only
// loosen. So the relaxation has an optimum of that form, and
// substituting it makes (7e) an identity and (7d) the row above: the
// two encodings have the same optimal value and the same optimal α
// (TestMixedRelaxedAgreesWithReduced is this argument made executable),
// and an α-space solve reports the β it implies (alphaSpaceSolution).
//
// What elimination buys is size: no β column and no (7e) row per remote
// route, roughly 590 rows against Model's 2 151 at K = 40, which is what
// lets the §6 sweeps cold-solve toward K = 95. What it costs is β
// itself: a bound, a pin or a branch on β_{k,l} has no variable to land
// on, so branch-and-bound nodes, LPRR's pins and boxed what-ifs use
// Model. Routes between clusters on one router cross no backbone link
// (bw_min = +Inf, as on the diagonal): they carry no β in either
// encoding and no term here.
func (pr *Problem) addAlphaLinkRows(prob *lp.Problem, lay alphaLayout) {
	pl := pr.Platform
	linkUse := make([][]lp.Term, len(pl.Links))
	for i, v := range lay.vars {
		rt := pl.Route(v.K, v.L)
		if rt.MinBW <= 0 || math.IsInf(rt.MinBW, 1) {
			continue
		}
		inv := 1.0 / rt.MinBW
		for _, li := range rt.Links {
			linkUse[li] = append(linkUse[li], lp.Term{Var: i, Coeff: inv})
		}
	}
	for li, use := range linkUse {
		addLE(prob, use, float64(pl.Links[li].MaxConnect))
	}
}

// alphaSpaceSolution reads an optimum of the α-space encoding back: α
// per layout column, and on every route that crosses a backbone link
// the β the eliminated program implies, α/bw_min.
func (pr *Problem) alphaSpaceSolution(lay alphaLayout, sol lp.Solution) *RelaxedSolution {
	out := newRelaxedSolution(pr.K())
	out.Objective = sol.Objective
	for i, v := range lay.vars {
		a := nonneg(sol.X[i])
		out.Alpha[v.K][v.L] = a
		if bw := pr.Platform.Route(v.K, v.L).MinBW; bw > 0 && !math.IsInf(bw, 1) {
			out.Beta[v.K][v.L] = a / bw
		}
	}
	return out
}
