package lp

// Test-only exports for the external lp_test package. Tests that check
// Revised against the lptest oracle cannot live in package lp (lptest
// imports lp), so the shared generators and the one internal hook they
// need are re-exported here.
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
