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

// ReadsRelaxation reports whether heuristic n starts from the relaxed
// optimum its caller holds (LPR, LPRG, LPRR, LPRR-EQ) rather than
// solving on its own (G, G-FULL).
func (n Name) ReadsRelaxation() bool { return n == NameLPR || n == NameLPRG || isLPRR(n) }

func isLPRR(n Name) bool { return n == NameLPRR || n == NameLPRREQ }

// Result is the outcome of one heuristic run: the allocation, its
// objective value, and the wall-clock time spent past the relaxation's
// solve. What Figure 7 plots for a heuristic that reads the relaxation
// is that solve's time plus this (DESIGN.md "Heuristics (§5)").
type Result struct {
	Heuristic Name
	Objective core.Objective
	Alloc     *core.Allocation
	Value     float64
	Elapsed   time.Duration
}

// Run executes the named heuristic on the problem under the given
// objective. rel is pr's relaxation under obj (Relax), which LPR, LPRG
// and LPRR start from; G does not read it, and it may be nil for G.
// rng is only consulted by the randomized heuristics; it may be nil for
// the deterministic ones. An LPRR run after another on the same rel
// first solves rel again, untimed: that solve is the relaxation's.
func Run(name Name, pr *core.Problem, obj core.Objective, rel *Relaxation, rng *rand.Rand) (Result, error) {
	if name.ReadsRelaxation() && rel == nil {
		return Result{}, fmt.Errorf("heuristics: %s requires the relaxation", name)
	}
	if isLPRR(name) {
		if rng == nil {
			return Result{}, fmt.Errorf("heuristics: %s requires an rng", name)
		}
		if err := rel.unpin(); err != nil {
			return Result{}, err
		}
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
	case NameLPRR:
		alloc, err = LPRR(pr, rel, ProportionalRounding, rng)
	case NameLPRREQ:
		alloc, err = LPRR(pr, rel, EqualRounding, rng)
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
