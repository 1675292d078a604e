package lp

// Test-only exports for the external lp_test package. Tests that check
// Revised against the lptest oracle cannot live in package lp (lptest
// imports lp), so the shared generators and the internal hooks they need
// are re-exported here.
var (
	RandomFeasibleProblem = randomFeasibleProblem
	RandomBoundedProblem  = randomBoundedProblem
	MutateProblem         = mutateProblem
	ObjTol                = objTol
	Approx                = approx
	MustPanic             = mustPanic
)

// SetBudgetOverride replaces the warm-restart pivot budget (see
// Revised.budgetOverride) so a test can force the cold fallback.
func (r *Revised) SetBudgetOverride(n int) { r.budgetOverride = n }

// has reports whether i is listed.
func (j *journal) has(i int) bool { return j.mark != nil && j.mark[i>>6]&(1<<(i&63)) != 0 }

// CheckRewound fails unless the solve state is the frozen copy, as a
// Rewind must leave it (see checkRewound).
func (r *Revised) CheckRewound() error { return r.checkRewound() }
