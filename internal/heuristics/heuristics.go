package heuristics

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
)

// Name identifies one of the paper's solution methods.
type Name string

const (
	// NameG is the greedy heuristic of §5.1.
	NameG Name = "G"
	// NameLPR is round-off (§5.2.1).
	NameLPR Name = "LPR"
	// NameLPRG is round-off + greedy (§5.2.2).
	NameLPRG Name = "LPRG"
	// NameLPRR is randomized round-off (§5.2.3).
	NameLPRR Name = "LPRR"
	// NameLPRREQ is the equal-probability rounding control variant
	// discussed in §6.2.
	NameLPRREQ Name = "LPRR-EQ"
	// NameBnB is the exact branch-and-bound search (bnb.go), which
	// measures how far the paper's heuristics are from the optimum.
	NameBnB Name = "BNB"
	// NameGFull is the G ablation that drains residual local speed
	// instead of stranding it (see Greedy's documentation). Not part
	// of the paper; used by the ablation benchmarks.
	NameGFull Name = "G-FULL"
)

// All lists the polynomial heuristics in the order the paper's
// experiments report them.
var All = []Name{NameG, NameLPR, NameLPRG, NameLPRR, NameLPRREQ}

// ReadsRelaxation reports whether heuristic n starts from the relaxed
// optimum its Relaxation holds (LPR, LPRG, LPRR, LPRR-EQ, BnB) rather
// than solving on its own (G, G-FULL).
func (n Name) ReadsRelaxation() bool {
	return n == NameLPR || n == NameLPRG || n.Pins()
}

// Randomized reports whether heuristic n draws on Run's rng (LPRR,
// LPRR-EQ).
func (n Name) Randomized() bool { return n == NameLPRR || n == NameLPRREQ }

// Pins reports whether heuristic n pins β on its relaxation's model and
// solves it again (LPRR, LPRR-EQ, BnB).
func (n Name) Pins() bool { return n.Randomized() || n == NameBnB }

// Result is the outcome of one heuristic run: the allocation, its
// objective value, and the wall-clock time spent past the relaxation's
// solve. What Figure 7 plots for a heuristic that reads the relaxation
// is that solve's time plus this (DESIGN.md "Heuristics (§5)").
type Result struct {
	Heuristic Name
	Alloc     *core.Allocation
	Value     float64
	Elapsed   time.Duration
}

// Run is the one dispatcher: it runs the named heuristic on pr from
// rel, pr's relaxation (Relax, or RelaxOn over a model holding pr's
// capacities), and values the allocation under rel's model's objective.
// rng is read by the randomized heuristics only, maxNodes by
// branch-and-bound only (<= 0: 10 000). On a held rel (Relax, Hold) a
// heuristic that pins runs from the model frozen at the root, and its
// pins are cleared and the solver rewound there after, untimed: both
// steps are the relaxation's. No caller runs two heuristics that pin on
// a rel not held. A branch-and-bound search out of budget returns its
// incumbent with ErrNodeBudget.
func Run(name Name, pr *core.Problem, rel *Relaxation, rng *rand.Rand, maxNodes int) (Result, error) {
	if rel == nil {
		return Result{}, fmt.Errorf("heuristics: %s requires the relaxation", name)
	}
	if name.Randomized() && rng == nil {
		return Result{}, fmt.Errorf("heuristics: %s requires an rng", name)
	}
	if name.Pins() && rel.held {
		if err := rel.model.Freeze(); err != nil {
			return Result{}, err
		}
		defer func() {
			rel.model.ResetBounds()
			rel.model.Rewind()
		}()
	}
	start := time.Now()
	var (
		alloc *core.Allocation
		err   error
	)
	switch name {
	case NameG:
		alloc = Greedy(pr)
	case NameGFull:
		alloc = GreedyFullDrain(pr)
	case NameLPR:
		alloc = LPR(pr, rel.RelaxedSolution)
	case NameLPRG:
		alloc = LPRG(pr, rel.RelaxedSolution)
	case NameLPRR, NameLPRREQ:
		alloc, err = lprr(pr, rel, name, rng)
	case NameBnB:
		alloc, err = branchAndBound(pr, rel, maxNodes)
	default:
		return Result{}, fmt.Errorf("heuristics: unknown heuristic %q", name)
	}
	if alloc == nil {
		return Result{}, err
	}
	return Result{
		Heuristic: name,
		Alloc:     alloc,
		Value:     pr.Objective(rel.model.Objective(), alloc),
		Elapsed:   time.Since(start),
	}, err
}
