package adapt

import (
	"errors"
	"math/rand"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
)

// This file provides ready-made WarmSolver constructors over the
// heuristics layer. The generic Run/RunWarm drivers stay
// solver-agnostic (any function of the right shape works); these
// constructors package the stateful epoch-to-epoch warm-start
// plumbing — basis reuse plus, for the exact solver, incumbent
// carry-over — so callers get the full benefit in one line.

// WarmLPRG returns a WarmSolver running the §5.2.2 round-off +
// greedy heuristic on the engine's persistent model.
func WarmLPRG() WarmSolver {
	return heuristics.LPRGOnModel
}

// WarmLPRR returns a WarmSolver running the §5.2.3 randomized
// round-off heuristic; rng drives the rounding draws across all
// epochs.
func WarmLPRR(variant heuristics.LPRRVariant, rng *rand.Rand) WarmSolver {
	return func(m *core.Model, epr *core.Problem, obj core.Objective, from *lp.Basis) (*core.Allocation, *lp.Basis, error) {
		return heuristics.LPRROnModel(m, epr, obj, variant, rng, from)
	}
}

// WarmBnB returns a WarmSolver running the exact branch-and-bound
// solver with full epoch-to-epoch warm state: node relaxations
// re-solve on the persistent model, the root warm-starts from the
// previous epoch's basis, and the previous epoch's optimal
// allocation — throttled to the new capacities, which keeps it
// feasible — seeds the incumbent, so the search starts with a tight
// lower bound when the platform drifts gradually (the paper's §1
// argument: record observed performance, inject it into the next
// period's optimization). maxNodes <= 0 means the solver's default;
// exhausting the node budget surfaces heuristics.ErrNodeBudget.
//
// The returned solver carries per-run state (the previous epoch's
// allocation); construct a fresh one for every RunWarm call rather
// than sharing one across runs.
func WarmBnB(maxNodes int) WarmSolver {
	return warmBnB(maxNodes, false)
}

// WarmBnBBudgetTolerant is WarmBnB except that exhausting the node
// budget returns the incumbent (a valid lower bound) instead of
// failing the epoch — the behavior benchmarks want when they must
// survive occasional hard epochs.
func WarmBnBBudgetTolerant(maxNodes int) WarmSolver {
	return warmBnB(maxNodes, true)
}

func warmBnB(maxNodes int, tolerateBudget bool) WarmSolver {
	var prev *core.Allocation
	return func(m *core.Model, epr *core.Problem, obj core.Objective, from *lp.Basis) (*core.Allocation, *lp.Basis, error) {
		var seed *core.Allocation
		// The shape guard drops stale state if the solver is (against
		// the documented contract) reused on a different platform.
		if prev != nil && len(prev.Alpha) == epr.K() {
			seed = Throttle(epr, prev)
		}
		alloc, _, basis, err := heuristics.BranchAndBoundOnModel(m, epr, obj, maxNodes, from, seed)
		if tolerateBudget && errors.Is(err, heuristics.ErrNodeBudget) {
			err = nil
		}
		if err == nil {
			prev = alloc
		}
		return alloc, basis, err
	}
}
