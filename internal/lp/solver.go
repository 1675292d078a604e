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

// Solve implements Solver. The instance it solves on is thrown away, so
// the returned Solution.X is the caller's.
func (RevisedSolver) Solve(p *Problem) (Solution, error) { return NewRevised(p).SolveFrom(nil) }

// Solve runs one cold revised-simplex solve of the problem. It returns
// an error only on ErrIterationLimit; model properties (infeasible/
// unbounded) are reported through Solution.Status.
func (p *Problem) Solve() (Solution, error) { return RevisedSolver{}.Solve(p) }

// SolveWith runs the problem through a specific backend.
func (p *Problem) SolveWith(s Solver) (Solution, error) { return s.Solve(p) }
