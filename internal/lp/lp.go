// Package lp implements linear-program solvers for programs in the
// form
//
//	maximize  c·x
//	subject to  a_i·x {<=,=,>=} b_i   for each constraint i
//	            lb_j <= x_j <= ub_j   for each variable j
//
// with default variable bounds [0, +Inf). The paper solves its
// rational relaxations with the C package lp_solve; Go's ecosystem
// has no standard LP solver, so this package provides one from
// scratch (stdlib only).
//
// # Architecture
//
// A Problem is a solver-independent model: an objective vector,
// sparse constraint rows ([]Term), and per-variable bounds
// (SetVarBounds). One solver serves it: Revised (revised.go), a
// revised simplex that stores the constraint matrix in compressed
// sparse column form (sparse.go), maintains a factorized basis
// representation, and prices columns with sparse dot products.
// Equality and >= constraints are supported through a classical
// phase-1 scheme with artificial variables. The test suites check it
// against an independent dense-tableau oracle, lptest.DenseSolver (a
// test-support package nothing on the serving path imports), which
// reads the same Problem through NumVars, NumConstraints, VarBounds,
// Objective and Constraint.
//
// # Factorized basis
//
// The revised simplex never forms the basis inverse explicitly. Its
// FTRAN/BTRAN operations go through luFactor (lu.go): a sparse LU
// factorization computed by Markowitz-style threshold pivoting over
// the CSC columns (row/column singletons — the ±e_i slack and
// artificial columns that dominate these bases — peel off as
// fill-free O(1) pivots), maintained across pivots by appending to an
// eta file in product form instead of touching L/U. The file is
// rebuilt into a fresh factorization when it grows past a length or
// density budget, or when an update pivot looks numerically unsafe.
// Because a pivot only ever appends, the committed L/U arrays of a
// clean factorization can be frozen and aliased read-only by any
// number of forked contexts (see Fork below).
//
// Pricing: the primal simplex prices entering columns with devex
// (reference-framework weights approximating steepest edge, columns
// maximize c̄²/w). The dual simplex prices leaving rows with exact
// Forrest–Goldfarb dual steepest edge — weights γ_i = ‖e_iᵀB⁻¹‖²
// maintained exactly across pivots from the FTRAN'd pivot column and
// one extra FTRAN of the pivot row, with the leaving row's weight
// recomputed from scratch each pivot so the recurrence is
// self-correcting. Its ratio test is bound-flipping (long-step):
// breakpoints are sorted by ratio and boxed candidates flip bound while
// the dual objective's slope stays positive, all flips applied with a single
// aggregated FTRAN, which passes degenerate vertices without pivots.
// The automatic switch to Bland's anti-cycling rule on objective
// stalls is retained from the Dantzig era. Revised.Stats exposes
// pivot, bound-flip, refactorization, steepest-edge reset and
// warm/cold solve counters for the experiment harness.
//
// Variable bounds are honored natively in the simplex itself — the
// bounded-variable method, not bound rows: lower bounds are
// shifted away, a nonbasic variable rests at either of its bounds
// (the at-upper set is part of the simplex state and of Basis), the
// ratio tests are two-sided (a basic variable may leave at its lower
// or its upper bound), and an entering variable that reaches its
// opposite bound first flips there without a pivot. Tightening a
// variable's bounds therefore never grows the constraint matrix —
// the property the branch-and-bound and pin-sequence layers above
// are built on.
//
// Problem.Solve runs one cold revised-simplex solve on a throwaway
// instance.
//
// # Warm starts
//
// A Revised instance is bound to one Problem and may re-solve it many
// times. Revised.SolveFrom(basis) is its one solve, warm or cold: it
// warm-starts from the supplied Basis when one is usable and
// cold-solves otherwise. The returned Solution.X is the context's own
// buffer, valid until the next solve or Rewind on that context; a
// caller that keeps X across either copies it. Revised.Basis snapshots
// the basis the last solve ended on, on request, so a caller pays for a
// snapshot only where it keeps one (a branch-and-bound node it
// branches, an LPRR pin, a committed epoch).
//
// The warm-start contract: after the constraint structure is frozen
// (rows, relations and coefficients fixed), the right-hand sides AND
// the variable bounds may be mutated freely through Problem.SetRHS and
// Problem.SetVarBounds, and SolveFrom(basis) re-solves from a
// previously snapshot Basis, which it never mutates. Because
// neither mutation touches a reduced cost — and hence dual
// feasibility of the old optimal basis stays intact — the re-solve
// runs the dual simplex from the old basis (including its
// at-upper-bound statuses) and typically finishes in a handful of
// pivots instead of a full phase-1/phase-2 pass. The context carries
// that reduced-cost vector from solve to solve, updated along each dual
// pivot row, so a restart's entry check, ratio tests and final
// optimality check read it instead of re-deriving it. Branching bounds
// and route pins in the layers above are therefore native bound
// mutations, never added or dedicated rows. A Basis records
// the basic column set and the at-upper statuses, not the
// factorization, so it round-trips between instances built over the
// same constraint structure (and through Export/ImportBasis between
// processes). SolveFrom falls back to a cold solve whenever the
// supplied basis is unusable (singular, stale, or numerically
// degraded) or the dual restart stops making progress within a pivot
// budget proportional to the instance size and nonzeros, so warm
// starts are strictly an optimization, never a correctness risk.
//
// A warm restart also refreshes only what changed. SetRHS and
// SetVarBounds list the rows and variables whose value changed bit
// pattern since the one context that owns the list last drained it; the
// context's refresh then reloads those variables' bounds, re-sums the
// lower-bound shift of every row a moved lower bound reaches (along the
// row mirror, in the column order a full refresh adds the same terms
// in), recomputes those rows' and the listed rows' effective rhs, and
// takes the tolerance scale as one max — every bit what a full refresh
// writes. It refreshes in full on its first and every cold solve, after
// Rebase, on a basis install, after a Rewind across a rewrite of the row
// signs, and when another context drained the list since. When the dual
// does not move — the common what-if: the mutation left the basis primal
// feasible — one pass over the reduced costs answers both its entry test
// and the optimality safety net after it; and while it pivots, the
// leaving-row choice and its stall sum walk the set of rows whose basic
// value lies outside its box, kept as a bitset beside the basic values,
// instead of all m rows. None of this changes a float: pivot counts,
// vertices and answers are those of the full passes it replaced.
//
// # Factorization vs. solve context
//
// A Revised instance is internally split in two (factorization.go):
//
//   - Factorization: everything derived from the frozen constraint
//     structure — the CSC matrix and its row-wise mirror, slack
//     bookkeeping, phase-1/phase-2 cost vectors, tolerance scales.
//     Built once, read-only afterwards, deliberately without lazy
//     caches, so any number of contexts read it without
//     synchronization.
//   - The solve context: everything one solve mutates — the owning
//     Problem (rhs and bounds), basis and at-upper state, the live
//     luFactor, pricing weights, statistics and scratch buffers.
//     Revised embeds a *Factorization, so a Revised IS a solve
//     context over a shareable immutable core.
//
// Revised.Freeze makes the context's current state — its own clean LU
// and the basis, at-upper statuses, row signs, steepest-edge weights and
// reduced costs beside it — the point Revised.Rewind returns to without
// refactorizing, so a solve posed after a Rewind costs and answers the
// same whatever was solved before it. That solve starts from the basic
// values Freeze recorded plus B⁻¹ of what moved since and journals what
// it writes from there. Unless it refactorizes or falls back cold, its X
// is the frozen optimum's rewritten where the journal says (Revised.Moved)
// — a full extraction's bits, pivots or not, at the cost of what moved —
// and Rewind undoes exactly the journal; otherwise Rewind copies the
// frozen state back in O(m + ncols) (DESIGN.md "Serving: the frozen state
// and its journal"). Revised.Fork
// splits a new context off a solved instance in O(m + nnz): the child is
// born frozen on the parent's snapshot (frozen once per generation, its LU aliased
// read-only by the parent and every sibling), shares the parent's
// Factorization, and owns private copies of all mutable state including
// a cloned Problem. A fork's first solve warm-starts from the parent's
// basis with zero lost pivots and zero refactorization; its rhs/bound
// mutations never leak into the parent or siblings, and forked contexts
// solve concurrently against the shared core data-race-free by
// construction. This is the engine under the scheduling service's
// what-ifs: the single one rewinds the session's context, and a batch
// fans out over forked contexts instead of serializing behind the
// session lock — contexts the session keeps between batches and
// Revised.Refork brings onto the parent's newest snapshot in place.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is the relation of a constraint row to its right-hand side.
type Rel int

const (
	// LE is a_i·x <= b_i.
	LE Rel = iota
	// GE is a_i·x >= b_i.
	GE
	// EQ is a_i·x == b_i.
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraint set admits no solution.
	Infeasible
	// Unbounded: the objective can be increased without bound.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// Problem is a linear program under construction. The zero value is
// not usable; create problems with New.
type Problem struct {
	nvars  int
	c      []float64
	lb, ub []float64
	rows   []row
	ch     changeList
}

// changeList records the rows whose rhs and the variables whose bounds
// SetRHS / SetVarBounds changed — a write of the bits already there is
// not a change — since the one context that owns the list last drained
// it (Revised.refreshRHS). The owner is named by its id, so the Problem
// does not keep it alive; 0 is nobody, and until some context drains the
// list its two journals are whole and record nothing: before that every
// context refreshes in full anyway. A Problem that is never re-solved,
// or a fork's clone until its first solve, pays nothing.
type changeList struct {
	owner      uint64
	rows, vars journal
}

// drain hands context id the rows and variables changed since it last
// drained the list, and makes the list its own and empty. ok is false
// when the list was not its own — nobody had drained it, or another
// context did since — and then the caller must refresh in full. The
// returned slices stay valid until the next SetRHS or SetVarBounds.
func (c *changeList) drain(id uint64) (rows, vars []int32, ok bool) {
	rows, vars, ok = c.rows.list, c.vars.list, c.owner == id
	c.owner = id
	c.rows.open()
	c.vars.open()
	return rows, vars, ok
}

// journal lists indices into a vector, each once, under a bitset mark:
// the entries some write touched. One that is not listing is whole: it
// names nothing, and its reader assumes every entry moved. The zero
// journal is whole; the mark and the list grow on first use.
type journal struct {
	list    []int32
	mark    []uint64
	listing bool
}

// note lists i, one of n indices, unless it is listed or the journal whole.
func (j *journal) note(i, n int) {
	if !j.listing {
		return
	}
	if j.mark == nil {
		j.mark, j.list = make([]uint64, (n+63)/64), make([]int32, 0, 16)
	}
	if w, bit := i>>6, uint64(1)<<(i&63); j.mark[w]&bit == 0 {
		j.mark[w] |= bit
		j.list = append(j.list, int32(i))
	}
}

func (j *journal) whole() bool { return !j.listing }

// open empties the journal, keeping its storage, and starts it listing;
// setWhole empties it and makes it whole.
func (j *journal) open() {
	for _, i := range j.list {
		j.mark[i>>6] &^= 1 << (i & 63)
	}
	j.list, j.listing = j.list[:0], true
}
func (j *journal) setWhole() { j.open(); j.listing = false }

// retain keeps, in order, the listed indices keep reports true for.
func (j *journal) retain(keep func(i int32) bool) {
	kept := j.list[:0]
	for _, i := range j.list {
		if keep(i) {
			kept = append(kept, i)
		} else {
			j.mark[i>>6] &^= 1 << (i & 63)
		}
	}
	j.list = kept
}

type row struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// New returns an empty maximization problem over nvars variables with
// default bounds [0, +Inf) and a zero objective.
func New(nvars int) *Problem {
	if nvars < 0 {
		panic(fmt.Sprintf("lp: negative variable count %d", nvars))
	}
	p := &Problem{
		nvars: nvars,
		c:     make([]float64, nvars),
		lb:    make([]float64, nvars),
		ub:    make([]float64, nvars),
	}
	for j := range p.ub {
		p.ub[j] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.nvars }

// NumConstraints returns the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// SetObjective sets the objective coefficient of variable j.
func (p *Problem) SetObjective(j int, coeff float64) {
	p.checkVar(j)
	p.c[j] = coeff
}

// AddConstraint appends a constraint row. Terms may repeat a variable;
// repeated coefficients are summed. The terms slice is copied.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) int {
	for _, t := range terms {
		p.checkVar(t.Var)
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			panic(fmt.Sprintf("lp: non-finite coefficient %g for variable %d", t.Coeff, t.Var))
		}
	}
	checkRHS(rhs)
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, row{terms: cp, rel: rel, rhs: rhs})
	return len(p.rows) - 1
}

// SetRHS mutates the right-hand side of constraint row i. Together
// with SetVarBounds this is the mutation the warm-start contract
// allows between re-solves of a Revised instance: coefficients and
// relations are frozen, right-hand sides and variable bounds are
// free.
func (p *Problem) SetRHS(i int, rhs float64) {
	p.checkRow(i)
	checkRHS(rhs)
	if math.Float64bits(rhs) != math.Float64bits(p.rows[i].rhs) {
		p.ch.rows.note(i, len(p.rows))
	}
	p.rows[i].rhs = rhs
}

// SetVarBounds mutates the bounds of variable j to lb <= x_j <= ub.
// lb must be finite and nonnegative; ub may be +Inf (unbounded
// above). lb > ub is rejected (panic): an empty box is a modelling
// error — callers that branch past a variable's capacity must treat
// the crossing as infeasibility themselves, before it reaches the
// solver. Like SetRHS this is a warm-start-preserving mutation: no
// reduced cost changes, so a dual-simplex restart from the previous
// optimal basis remains valid.
func (p *Problem) SetVarBounds(j int, lb, ub float64) {
	p.checkVar(j)
	if math.IsNaN(lb) || math.IsInf(lb, 0) || lb < 0 {
		panic(fmt.Sprintf("lp: invalid lower bound %g for variable %d", lb, j))
	}
	if math.IsNaN(ub) || math.IsInf(ub, -1) {
		panic(fmt.Sprintf("lp: invalid upper bound %g for variable %d", ub, j))
	}
	if lb > ub {
		panic(fmt.Sprintf("lp: crossed bounds [%g, %g] for variable %d", lb, ub, j))
	}
	if math.Float64bits(lb) != math.Float64bits(p.lb[j]) || math.Float64bits(ub) != math.Float64bits(p.ub[j]) {
		p.ch.vars.note(j, p.nvars)
	}
	p.lb[j], p.ub[j] = lb, ub
}

// VarBounds returns the current bounds of variable j.
func (p *Problem) VarBounds(j int) (lb, ub float64) {
	p.checkVar(j)
	return p.lb[j], p.ub[j]
}

// RHS returns the current right-hand side of constraint row i.
func (p *Problem) RHS(i int) float64 {
	p.checkRow(i)
	return p.rows[i].rhs
}

// Objective returns the objective coefficient of variable j.
func (p *Problem) Objective(j int) float64 {
	p.checkVar(j)
	return p.c[j]
}

// Constraint returns constraint row i as AddConstraint received it
// (with its current right-hand side). The terms are a copy. Together
// with VarBounds and Objective this lets a solver outside the package
// — the lptest oracle — read the whole program.
func (p *Problem) Constraint(i int) (terms []Term, rel Rel, rhs float64) {
	p.checkRow(i)
	r := p.rows[i]
	return append([]Term(nil), r.terms...), r.rel, r.rhs
}

func checkRHS(rhs float64) {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: non-finite rhs %g", rhs))
	}
}

func (p *Problem) checkVar(j int) {
	if j < 0 || j >= p.nvars {
		panic(fmt.Sprintf("lp: variable %d out of range [0,%d)", j, p.nvars))
	}
}

func (p *Problem) checkRow(i int) {
	if i < 0 || i >= len(p.rows) {
		panic(fmt.Sprintf("lp: row %d out of range [0,%d)", i, len(p.rows)))
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64 // values of the structural variables (nil unless Optimal)
	Objective float64   // c·X (0 unless Optimal)
}

// Solve runs one cold revised-simplex solve of the problem on an
// instance it then throws away, so the returned Solution.X is the
// caller's. It returns an error only on ErrIterationLimit; model
// properties (infeasible/unbounded) are reported through
// Solution.Status.
func (p *Problem) Solve() (Solution, error) { return NewRevised(p).SolveFrom(nil) }

const (
	eps = 1e-9 // pivot/feasibility tolerance
	// stallLimit is the number of consecutive non-improving pivots
	// tolerated under Dantzig pricing before switching to Bland's
	// rule, which guarantees termination.
	stallLimit = 64
)

// ErrIterationLimit is returned when the simplex exceeds its pivot
// budget, which indicates a numerical pathology rather than a property
// of the model.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")
