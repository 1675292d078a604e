package lp

// Solver is a one-shot LP backend: it solves a Problem built with New
// / AddConstraint and reports the result. RevisedSolver is the only
// implementation in this package; the interface exists so the test
// suites can run the same Problem (Problem.SolveWith, and
// core.Model.SolveWith above it) through the independent dense-tableau
// oracle in the test-support package lptest.
type Solver interface {
	Solve(p *Problem) (Solution, error)
}

// RevisedSolver solves with the sparse revised simplex. Each call
// builds a fresh Revised instance and cold-solves it; use NewRevised
// directly when re-solving the same problem with warm starts.
type RevisedSolver struct{}

// Solve implements Solver.
func (RevisedSolver) Solve(p *Problem) (Solution, error) {
	sol, _, err := p.SolveBasis()
	return sol, err
}

// Solve runs one cold revised-simplex solve of the problem. It returns
// an error only on ErrIterationLimit; model properties (infeasible/
// unbounded) are reported through Solution.Status.
func (p *Problem) Solve() (Solution, error) { return RevisedSolver{}.Solve(p) }

// SolveBasis is Solve additionally returning the optimal basis.
// RevisedSolver.Solve necessarily discards the basis (the Solver
// interface has nowhere to put it); one-shot callers that want to
// seed a later warm start — without constructing a Revised instance
// by hand — use this entry instead. The basis is non-nil whenever err
// is nil, and is valid for any Revised instance built over a Problem
// with the identical constraint structure.
func (p *Problem) SolveBasis() (Solution, *Basis, error) {
	return NewRevised(p).SolveFrom(nil)
}

// SolveWith runs the problem through a specific backend.
func (p *Problem) SolveWith(s Solver) (Solution, error) { return s.Solve(p) }
