// Package heuristics implements the paper's five solution methods
// for the STEADY-STATE-DIVISIBLE-LOAD problem (§5): the greedy
// heuristic G, the LP-relaxation-based heuristics LPR (round down),
// LPRG (round down + greedy refinement) and LPRR (randomized
// rounding, including the equal-probability variant discussed in
// §6.2), plus an exact branch-and-bound solver for the mixed program
// (7) usable on small instances to calibrate the heuristics against
// the true optimum.
package heuristics

import (
	"math"

	"repro/internal/core"
	"repro/internal/platform"
)

// greedyTol treats residual quantities below this threshold as
// exhausted, which keeps the floating-point loop from spinning on
// crumbs.
const greedyTol = 1e-9

// Greedy runs the paper's greedy heuristic G (§5.1) on the full
// platform and returns the resulting valid allocation. Applications
// with payoff 0 never run: their share α_k·π_k would always be the
// smallest, and would soak up resources for nothing. Faithful to §5.1,
// a local step ships only what some other application could still send
// to the cluster, and an application whose guard is zero drops out,
// stranding residual local speed (visible in the paper's Figure 5,
// where SUM(G) stays below the all-local SUM bound). GreedyFullDrain
// drains it instead (DESIGN.md "Heuristics (§5)").
func Greedy(pr *core.Problem) *core.Allocation {
	return greedy(pr, false)
}

// GreedyFullDrain is Greedy with the stranded-speed fix described in
// Greedy's documentation: when the §5.1 local-allocation guard is
// zero, the full residual local speed is allocated instead of
// dropping the application.
func GreedyFullDrain(pr *core.Problem) *core.Allocation {
	return greedy(pr, true)
}

func greedy(pr *core.Problem, fullDrain bool) *core.Allocation {
	alloc := core.NewAllocation(pr.K())
	greedyFill(pr.Platform, nil, pr.Payoffs, platform.NewResidual(pr.Platform), alloc, fullDrain)
	return alloc
}

// greedyFill applies the §5.1 greedy loop on top of an existing
// allocation and residual platform state: application a, of payoff
// payoffs[a], has origin C^origins[a], or C^a when origins is nil (the
// paper's one application per cluster). It is shared between G (fresh
// state) and LPRG (state left over after LP rounding); origins lets the
// tests run §3.1's several applications per origin through the same
// loop.
func greedyFill(pl *platform.Platform, origins []int, payoffs []float64, res *platform.Residual, alloc *core.Allocation, fullDrain bool) {
	K, A := pl.K(), len(payoffs)
	live := make([]bool, A)
	// share[a] is application a's throughput α_a, summed along its row as
	// Allocation.AppThroughput sums it, whenever a step writes the row.
	share := make([]float64, A)
	n := 0
	for a := 0; a < A; a++ {
		if payoffs[a] > 0 {
			live[a] = true
			share[a] = alloc.AppThroughput(a)
			n++
		}
	}
	// Safety valve: each remote step consumes a connection slot and
	// each local step consumes residual speed, so the loop terminates;
	// the cap only guards against floating-point pathologies. Budgets
	// are at most platform.MaxConnectCeiling, so the sum cannot
	// overflow.
	totalSlots := 0
	for _, mc := range res.MaxConnect {
		totalSlots += mc
	}
	maxSteps := 100*A + totalSlots + 1000

	for step := 0; n > 0 && step < maxSteps; step++ {
		// Step 3: select the application with the smallest relative
		// share α_a·π_a, breaking ties by the larger payoff, then by
		// index (deterministic).
		a := -1
		for cand := 0; cand < A; cand++ {
			if !live[cand] {
				continue
			}
			if a == -1 {
				a = cand
				continue
			}
			sc := share[cand] * payoffs[cand]
			sa := share[a] * payoffs[a]
			if sc < sa-greedyTol || (math.Abs(sc-sa) <= greedyTol && payoffs[cand] > payoffs[a]) {
				a = cand
			}
		}
		k := a
		if origins != nil {
			k = origins[a]
		}

		// Step 4: select the most profitable target cluster.
		bestL, bestBenefit := -1, 0.0
		for l := 0; l < K; l++ {
			if b := benefit(pl, res, k, l); b > bestBenefit+greedyTol {
				bestBenefit = b
				bestL = l
			}
		}
		if bestL == -1 || bestBenefit <= greedyTol {
			live[a] = false
			n--
			continue
		}
		l := bestL

		// Step 5: decide the amount of work.
		var amount float64
		if l == k {
			// Local: allocate only as much as some other application
			// could have used on C^k, to avoid hogging the local
			// cluster early (§5.1 step 5).
			amount = 0
			for m := 0; m < K; m++ {
				if m == k {
					continue
				}
				cand := minFloat(res.Gateway[k], pl.RouteBW(m, k), res.Gateway[m], res.Speed[k])
				if !res.RouteOpen(m, k) {
					cand = 0
				}
				if cand > amount {
					amount = cand
				}
			}
			if amount <= greedyTol && fullDrain {
				// Ablation variant: the guard being zero means no other
				// application can ever again reach C^k (every quantity
				// in the guard is non-increasing), so the contention
				// concern is vacuous — drain the residual speed.
				amount = res.Speed[k]
			}
			if amount > res.Speed[k] {
				amount = res.Speed[k]
			}
			if amount <= greedyTol {
				// Faithful §5.1: drop the application, stranding any
				// residual local speed.
				live[a] = false
				n--
				continue
			}
			res.Speed[k] -= amount
			alloc.Alpha[a][k] += amount
			share[a] = alloc.AppThroughput(a)
			continue
		}
		// Remote: open one connection and ship the single-connection
		// benefit (step 6 updates).
		amount = bestBenefit
		res.Speed[l] -= amount
		res.Gateway[k] -= amount
		res.Gateway[l] -= amount
		res.OpenConnection(k, l)
		alloc.Alpha[a][l] += amount
		alloc.Beta[k][l]++
		share[a] = alloc.AppThroughput(a)
	}
	clampResidual(res)
}

// benefit computes the §5.1 step-4 benefit of running application k's
// work on cluster l under the current residual state: the residual
// speed for a local run, or the work a single new connection can
// carry for a remote run — min{g_k, g_{k,l}, g_l, s_l}, zero when the
// route has no free connection slot.
func benefit(pl *platform.Platform, res *platform.Residual, k, l int) float64 {
	if l == k {
		return res.Speed[k]
	}
	if !res.RouteOpen(k, l) {
		return 0
	}
	b := minFloat(res.Gateway[k], pl.RouteBW(k, l), res.Gateway[l], res.Speed[l])
	if b < 0 {
		return 0
	}
	return b
}

func minFloat(vs ...float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}

// clampResidual zeroes out tiny negative residues left by
// floating-point subtraction so later consumers see a sane state.
func clampResidual(res *platform.Residual) {
	for i := range res.Speed {
		if res.Speed[i] < 0 {
			res.Speed[i] = 0
		}
		if res.Gateway[i] < 0 {
			res.Gateway[i] = 0
		}
	}
}
