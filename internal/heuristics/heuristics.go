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
	// NameGFull is the G ablation that drains residual local speed
	// instead of stranding it (see Greedy's documentation). Not part
	// of the paper; used by the ablation benchmarks.
	NameGFull Name = "G-FULL"
)

// All lists the polynomial heuristics in the order the paper's
// experiments report them.
var All = []Name{NameG, NameLPR, NameLPRG, NameLPRR, NameLPRREQ}

// Result is the outcome of one heuristic run: the allocation, its
// objective value, and the wall-clock time spent (the quantity
// plotted in Figure 7).
type Result struct {
	Heuristic Name
	Objective core.Objective
	Alloc     *core.Allocation
	Value     float64
	Elapsed   time.Duration
}

// Run executes the named heuristic on the problem under the given
// objective. rng is only consulted by the randomized heuristics; it
// may be nil for the deterministic ones.
func Run(name Name, pr *core.Problem, obj core.Objective, rng *rand.Rand) (Result, error) {
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
		alloc, err = LPR(pr, obj)
	case NameLPRG:
		alloc, err = LPRG(pr, obj)
	case NameLPRR:
		if rng == nil {
			return Result{}, fmt.Errorf("heuristics: %s requires an rng", name)
		}
		alloc, err = LPRR(pr, obj, ProportionalRounding, rng)
	case NameLPRREQ:
		if rng == nil {
			return Result{}, fmt.Errorf("heuristics: %s requires an rng", name)
		}
		alloc, err = LPRR(pr, obj, EqualRounding, rng)
	default:
		return Result{}, fmt.Errorf("heuristics: unknown heuristic %q", name)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{
		Heuristic: name,
		Objective: obj,
		Alloc:     alloc,
		Value:     pr.Objective(obj, alloc),
		Elapsed:   time.Since(start),
	}, nil
}

// UpperBound solves the rational relaxation and returns its objective
// value — the paper's "LP" comparator, an upper bound on the optimal
// mixed-integer throughput, together with the time spent.
func UpperBound(pr *core.Problem, obj core.Objective) (float64, time.Duration, error) {
	start := time.Now()
	rel, err := relax(pr, obj)
	if err != nil {
		return 0, 0, err
	}
	return rel.Objective, time.Since(start), nil
}
