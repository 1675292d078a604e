package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/platform"
)

// This file writes linear program (7) down once: the α variable layout,
// the objective rows and the row families (7b)-(7e), as builders the
// two encodings assemble, for one or several applications per origin —
// the cluster an application's input data lives on and its load is
// shipped from. Problem has one application per cluster, A_k of origin
// C^k; RelaxedApps (§3.1) lets applications share an origin. The
// explicit (α, β) encoding (Model) keeps β as columns; it is the
// relaxation every heuristic rounds and every bound, pin and branch
// lands on. The α-space encoding (RelaxedApps) eliminates β (DESIGN.md
// "β elimination"): it serves §3.1's several applications per origin
// and is the reference the two encodings are tested against.

// RelaxedSolution is an optimum of program (7) with β's integrality
// relaxed — the paper's "LP" comparator, an upper bound on the
// mixed-integer optimum, and the point every §5.2 heuristic rounds.
// Alpha[a][l] is application a's α̃_{a,l}, one row per application.
// Beta[k][l] is the fractional connection count β̃_{k,l} of route (k, l):
// the LP's β column under Model, which may exceed the route's flow over
// bw_min(k,l) where (7e) is slack; the flow over bw_min itself under
// RelaxedApps; 0 where the route carries no β variable (the diagonal,
// missing routes, and routes that cross no backbone link). LPR, LPRG
// and LPRR read β̃ as α̃/bw_min, not this table; branch-and-bound and
// a relaxed what-if's report read the table.
type RelaxedSolution struct {
	Alpha     [][]float64
	Beta      [][]float64
	Objective float64

	cells []float64 // the block both tables are cut from: α row-major, then β
}

// newRelaxedSolution returns the all-zero solution for A applications
// on K clusters. Both tables are cut from one block of cells, so a
// solve's extraction costs the same few allocations whatever K is.
func newRelaxedSolution(A, K int) *RelaxedSolution {
	cells := make([]float64, (A+K)*K)
	rows := make([][]float64, A+K)
	for i := range rows {
		rows[i] = cells[i*K : (i+1)*K : (i+1)*K]
	}
	return &RelaxedSolution{Alpha: rows[:A:A], Beta: rows[A:], cells: cells}
}

// Diff is a relaxed optimum told as another plus what moved: it equals
// Base but at Cells, ascending cell numbers of Base's block — α_{a,l} is
// cell a·K+l, β_{k,l} cell A·K+k·K+l for A applications on K clusters —
// where it holds Values, and its objective is Objective. Base is shared:
// read-only.
type Diff struct {
	Base      *RelaxedSolution
	Cells     []int32
	Values    []float64
	Objective float64
}

// Dense writes d out whole, into a solution of its own.
func (d Diff) Dense() *RelaxedSolution {
	out := newRelaxedSolution(len(d.Base.Alpha), len(d.Base.Beta))
	copy(out.cells, d.Base.cells)
	for i, c := range d.Cells {
		out.cells[c] = d.Values[i]
	}
	out.Objective = d.Objective
	return out
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
// column per application a and cluster C^l its origin has a route to —
// the origin itself, local computation, always has one — numbered
// application-major from 0. Whatever else an encoding needs (β columns,
// MAXMIN's level t) follows, with t last.
type alphaLayout struct {
	pl     *platform.Platform
	origin []int     // origin[a] is application a's origin
	payoff []float64 // payoff[a] is π_a
	from   [][]int   // from[k] lists, ascending, the applications of origin C^k
	vars   []Pair    // column i carries α_{a,l} for vars[i] = (a, l)
	col    [][]int   // col[a][l] is α_{a,l}'s column, -1 where a's origin has no route to C^l
}

// newAlphaLayout lays out applications a = 0, 1, …, len(origin)-1, a of
// origin C^origin[a] with payoff payoff[a].
func newAlphaLayout(pl *platform.Platform, origin []int, payoff []float64) alphaLayout {
	K, A := pl.K(), len(origin)
	lay := alphaLayout{pl: pl, origin: origin, payoff: payoff, from: make([][]int, K), col: make([][]int, A)}
	cells := make([]int, A*K)
	for a, k := range origin {
		lay.from[k] = append(lay.from[k], a)
		lay.col[a] = cells[a*K : (a+1)*K]
		for l := 0; l < K; l++ {
			lay.col[a][l] = -1
			if k == l || pl.Route(k, l).Exists {
				lay.col[a][l] = len(lay.vars)
				lay.vars = append(lay.vars, Pair{a, l})
			}
		}
	}
	return lay
}

// alphaLayout is the layout of the paper's §3 case: application A_k's
// origin is C^k, so column i carries α on route vars[i].
func (pr *Problem) alphaLayout() alphaLayout {
	origin := make([]int, pr.K())
	for k := range origin {
		origin[k] = k
	}
	return newAlphaLayout(pr.Platform, origin, pr.Payoffs)
}

// appTerms appends coeff·α_a = coeff·Σ_l α_{a,l} (Equation 7a) to terms.
func (lay alphaLayout) appTerms(terms []lp.Term, a int, coeff float64) []lp.Term {
	for _, c := range lay.col[a] {
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

// addLevelRow adds t − π_a·α_a ≤ 0, application a's share of Equation
// (6): the common level t (prob's last column) cannot exceed its payoff.
func (lay alphaLayout) addLevelRow(prob *lp.Problem, a int) {
	t := lp.Term{Var: prob.NumVars() - 1, Coeff: 1}
	prob.AddConstraint(lay.appTerms([]lp.Term{t}, a, -lay.payoff[a]), lp.LE, 0)
}

// addObjective installs obj: SUM as the weight π_a on every α_{a,l}
// (Equation 5, no row); MAXMIN as "maximize t" under one level row per
// application with π_a > 0.
func (lay alphaLayout) addObjective(prob *lp.Problem, obj Objective) error {
	switch obj {
	case SUM:
		for i, v := range lay.vars {
			prob.SetObjective(i, lay.payoff[v.K])
		}
	case MAXMIN:
		prob.SetObjective(prob.NumVars()-1, 1)
		positive := false
		for a, pi := range lay.payoff {
			if pi > 0 {
				positive = true
				lay.addLevelRow(prob, a)
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

// addClusterRows adds (7b), one row per cluster's computing speed over
// every application's load there, then (7c), one per cluster's gateway
// over the remote traffic leaving or entering it, and returns each
// cluster's row in the two families (-1 where it has none) — the
// handles Model's capacity mutators write through.
func (lay alphaLayout) addClusterRows(prob *lp.Problem) (speedRow, gatewayRow []int) {
	K := lay.pl.K()
	speedRow, gatewayRow = make([]int, K), make([]int, K)
	var terms []lp.Term
	for l := 0; l < K; l++ {
		terms = terms[:0]
		for _, row := range lay.col {
			if c := row[l]; c >= 0 {
				terms = append(terms, lp.Term{Var: c, Coeff: 1})
			}
		}
		speedRow[l] = addLE(prob, terms, lay.pl.Clusters[l].Speed)
	}
	for k := 0; k < K; k++ {
		terms = terms[:0]
		for l := 0; l < K; l++ {
			if l == k {
				continue
			}
			for _, a := range lay.from[k] {
				if c := lay.col[a][l]; c >= 0 {
					terms = append(terms, lp.Term{Var: c, Coeff: 1})
				}
			}
			for _, a := range lay.from[l] {
				if c := lay.col[a][k]; c >= 0 {
					terms = append(terms, lp.Term{Var: c, Coeff: 1})
				}
			}
		}
		gatewayRow[k] = addLE(prob, terms, lay.pl.Clusters[k].Gateway)
	}
	return speedRow, gatewayRow
}

// addAlphaLinkRows adds (7d) and (7e) with β eliminated — the only rows
// the α-space encoding does not share with the explicit one. Per
// backbone link li, over the routes (k,l) that cross it:
//
//	Σ_{(k,l): li ∈ L_{k,l}} Σ_{a of origin k} α_{a,l}/bw_min(k,l) ≤ max-connect(li)
//
// DESIGN.md "β elimination" says why both encodings have the same
// optimum. Routes between clusters on one router cross no backbone
// link (bw_min = +Inf, as on the diagonal): they carry no β in either
// encoding and no term here.
func (lay alphaLayout) addAlphaLinkRows(prob *lp.Problem) {
	pl := lay.pl
	linkUse := make([][]lp.Term, len(pl.Links))
	for i, v := range lay.vars {
		rt := pl.Route(lay.origin[v.K], v.L)
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
// the β the eliminated program implies, the route's flow over bw_min.
func (lay alphaLayout) alphaSpaceSolution(sol lp.Solution) *RelaxedSolution {
	K := lay.pl.K()
	out := newRelaxedSolution(len(lay.col), K)
	out.Objective = sol.Objective
	for i, v := range lay.vars {
		out.Alpha[v.K][v.L] = nonneg(sol.X[i])
	}
	for k, apps := range lay.from {
		for l := 0; l < K && len(apps) > 0; l++ {
			bw := lay.pl.Route(k, l).MinBW
			if lay.col[apps[0]][l] < 0 || bw <= 0 || math.IsInf(bw, 1) {
				continue
			}
			flow := out.Alpha[apps[0]][l]
			for _, a := range apps[1:] {
				flow += out.Alpha[a][l]
			}
			out.Beta[k][l] = flow / bw
		}
	}
	return out
}
