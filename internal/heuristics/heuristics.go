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

// ReadsRelaxation reports whether heuristic n rounds a relaxed optimum
// its caller holds (LPR, LPRG) rather than solving on its own.
func (n Name) ReadsRelaxation() bool { return n == NameLPR || n == NameLPRG }

// Result is the outcome of one heuristic run: the allocation, its
// objective value, and the wall-clock time spent. For LPR and LPRG
// that is the rounding alone; what Figure 7 plots for them is the
// relaxation's solve time plus this (DESIGN.md "Heuristics (§5)").
type Result struct {
	Heuristic Name
	Objective core.Objective
	Alloc     *core.Allocation
	Value     float64
	Elapsed   time.Duration
}

// Run executes the named heuristic on the problem under the given
// objective. rel is pr's relaxed optimum under obj (Relax), which LPR
// and LPRG round; the other heuristics do not read it, and it may be
// nil for them. rng is only consulted by the randomized heuristics; it
// may be nil for the deterministic ones.
func Run(name Name, pr *core.Problem, obj core.Objective, rel *core.RelaxedSolution, rng *rand.Rand) (Result, error) {
	if name.ReadsRelaxation() && rel == nil {
		return Result{}, fmt.Errorf("heuristics: %s requires the relaxation", name)
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
		alloc = LPR(pr, rel)
	case NameLPRG:
		alloc = LPRG(pr, rel)
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
