package heuristics

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/lp"
)

// ErrNodeBudget is returned by a branch-and-bound Run when the node
// budget is exhausted before the search tree is closed; the incumbent
// returned alongside is then only a lower bound, not a proven optimum.
var ErrNodeBudget = fmt.Errorf("heuristics: branch-and-bound node budget exhausted")

// branchAndBound solves the mixed program (7) exactly by
// branch-and-bound on the integer β variables, from rel: its model
// serves the whole tree, the root is rel's optimum, and each node
// re-solves the model warm from its parent's optimal basis (the root's
// from rel's root basis) — a branch tightens one β variable's native
// bounds, leaving the constraint matrix (and the basis dimension)
// untouched, so each child typically needs only a few dual-simplex
// pivots. The problem is NP-hard (paper §4, Theorem 1), so this is only
// practical for small platforms (K up to ~6-8); it exists to measure
// how close the polynomial heuristics get to the true optimum, which
// the paper could not do ("solving the mixed LP problem for the optimal
// solution takes exponential time; consequently we cannot use it in
// practice").
//
// The search starts from LPRG's rounding of rel's optimum only, never
// from a previous epoch's optimum: the proven value is the same either
// way, but a carried incumbent could change which of several tied
// allocations is returned, making the answer depend on solve history.
//
// maxNodes bounds the search; <= 0 means a default of 10,000 nodes.
// The returned allocation is the best integer-feasible point found.
func branchAndBound(pr *core.Problem, rel *Relaxation, maxNodes int) (*core.Allocation, error) {
	if maxNodes <= 0 {
		maxNodes = 10000
	}
	model, obj := rel.model, rel.model.Objective()
	incumbent := LPRG(pr, rel.RelaxedSolution)
	if err := pr.CheckAllocation(incumbent, core.DefaultTol); err != nil {
		return nil, fmt.Errorf("heuristics: LPRG produced an invalid incumbent: %w", err)
	}
	best := pr.Objective(obj, incumbent)

	type node struct {
		bounds map[core.Pair]core.BetaBounds
		// basis is the parent relaxation's optimal basis; the child's
		// bound set differs from the parent's by one variable-bound
		// change, so it is one dual-simplex restart away.
		basis *lp.Basis
	}
	stack := []node{{bounds: map[core.Pair]core.BetaBounds{}, basis: rel.Root}}
	nodes := 0
	for len(stack) > 0 {
		if nodes >= maxNodes {
			return incumbent, ErrNodeBudget
		}
		nodes++
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		model.ResetBounds()
		for p, b := range nd.bounds {
			if err := model.SetBounds(p, b); err != nil {
				return nil, err
			}
		}
		bound, ok, err := model.Solve(nd.basis)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // infeasible subtree
		}
		if bound <= best+1e-9*(1+math.Abs(best)) {
			continue // bound cannot beat the incumbent
		}
		rel := model.Solution()
		p, fractional := rel.MostFractional(core.IntegralityTol)
		if !fractional {
			// Integer-feasible: round the (near-integral) β and keep
			// the α values.
			cand := core.NewAllocation(pr.K())
			for k := range rel.Alpha {
				copy(cand.Alpha[k], rel.Alpha[k])
			}
			for k, row := range rel.Beta {
				for l, v := range row {
					cand.Beta[k][l] = int(math.Round(v))
				}
			}
			if err := pr.CheckAllocation(cand, core.DefaultTol); err != nil {
				return nil, fmt.Errorf("heuristics: BnB produced an invalid candidate: %w", err)
			}
			if val := pr.Objective(obj, cand); val > best {
				best = val
				incumbent = cand
			}
			continue
		}
		// Branch: β_p <= floor  |  β_p >= floor+1. Entries absent from
		// the bounds map mean [0, +inf), i.e. Lb=0, Ub=-1.
		floor := math.Floor(rel.Beta[p.K][p.L])
		down := cloneBounds(nd.bounds)
		b := boundsOf(down, p)
		if b.Ub < 0 || floor < b.Ub {
			b.Ub = floor
		}
		down[p] = b
		up := cloneBounds(nd.bounds)
		b = boundsOf(up, p)
		if floor+1 > b.Lb {
			b.Lb = floor + 1
		}
		up[p] = b
		basis := model.Basis() // the one snapshot a node takes, and only to branch
		stack = append(stack, node{bounds: down, basis: basis}, node{bounds: up, basis: basis})
	}
	return incumbent, nil
}

// boundsOf reads the effective bounds of p in m, defaulting absent
// entries to [0, +inf) (Ub = -1 means unbounded above).
func boundsOf(m map[core.Pair]core.BetaBounds, p core.Pair) core.BetaBounds {
	if b, ok := m[p]; ok {
		return b
	}
	return core.BetaBounds{Lb: 0, Ub: -1}
}

func cloneBounds(in map[core.Pair]core.BetaBounds) map[core.Pair]core.BetaBounds {
	out := make(map[core.Pair]core.BetaBounds, len(in)+1)
	for k, v := range in {
		out[k] = v
	}
	return out
}
