package heuristics

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// lprr is the paper's randomized round-off heuristic (§5.2.3), run
// from rel's optimum on the model rel was solved on. It fixes the β
// value of one route at a time: solve the rational relaxation with all
// previously pinned routes, pick an unpinned route at random among
// those with β̃ ≠ 0, round its β̃ up with probability equal to its
// fractional part (down otherwise; NameLPRREQ rounds up or down with
// probability 1/2, the control variant the paper reports performs much
// worse, §6.2), pin it, and iterate. Unpinned
// routes whose β̃ is 0 in the current solution are pinned to 0 in bulk
// when no nonzero candidate remains. The procedure solves up to K²
// linear programs, the complexity the paper measures in Figure 7; its
// first is rel's own solve. A pin is a native variable-bound mutation
// of the one core.Model (β_p fixed to v via lb = ub = v, leaving the
// constraint matrix untouched), so every re-solve warm-starts the
// revised simplex from the previous pin's optimal basis, the first from
// rel's root basis.
//
// With integral max-connect values a round-up to ⌈β̃⌉ can never make
// the pin set infeasible (DESIGN.md "Heuristics (§5)"); if
// infeasibility is ever reported (LPRR-EQ rounding an integral β̃ up,
// or the solver's tolerance), the round-up is retried as a round-down.
func lprr(pr *core.Problem, rel *Relaxation, name Name, rng *rand.Rand) (*core.Allocation, error) {
	model, opt, basis := rel.model, rel.RelaxedSolution, rel.Root
	routes := model.BetaVars() // row-major: the order the rng draws over
	fixed := make(map[core.Pair]int, len(routes))
	remaining := make(map[core.Pair]bool, len(routes))
	for _, p := range routes {
		remaining[p] = true
	}

	// betaFrac is the β̃ the rounding rule draws on: the least
	// fractional connection count α̃/bw_min that carries the current
	// relaxed α, as roundDown reads it.
	betaFrac := func(p core.Pair) float64 {
		if bw := pr.Platform.RouteBW(p.K, p.L); bw > 0 && !math.IsInf(bw, 1) {
			return opt.Alpha[p.K][p.L] / bw
		}
		return 0
	}

	for len(remaining) > 0 {
		// Candidates: unpinned routes with nonzero β̃ in the current
		// relaxed solution, in deterministic order for the rng draw.
		var candidates []core.Pair
		for _, p := range routes {
			if remaining[p] && betaFrac(p) > snapEps {
				candidates = append(candidates, p)
			}
		}
		if len(candidates) == 0 {
			// Everything left is zero in the relaxation: pin to 0.
			for p := range remaining {
				fixed[p] = 0
				if err := model.SetBounds(p, core.BetaBounds{Lb: 0, Ub: 0}); err != nil {
					return nil, err
				}
			}
			break
		}
		p := candidates[rng.Intn(len(candidates))]
		bt := betaFrac(p)
		floor := int(math.Floor(bt + snapEps))
		pUp := max(bt-float64(floor), 0) // β̃'s fractional part
		if name == NameLPRREQ {
			pUp = 0.5
		}
		up := 0
		if rng.Float64() < pUp {
			up = 1
		}
		value := floor + up
		if err := pin(model, p, value); err != nil {
			return nil, err
		}
		fixed[p] = value
		delete(remaining, p)

		_, ok, err := model.Solve(basis)
		if err != nil {
			return nil, err
		}
		if !ok && up == 1 {
			// Exotic-platform fallback: retry with the floor.
			if err := pin(model, p, floor); err != nil {
				return nil, err
			}
			fixed[p] = floor
			if _, ok, err = model.Solve(basis); err != nil {
				return nil, err
			}
		}
		if !ok {
			return nil, fmt.Errorf("heuristics: LPRR pin set became infeasible at route (%d,%d)", p.K, p.L)
		}
		opt, basis = model.Solution(), model.Basis()
	}

	// Final solve with every route pinned gives the α values.
	_, ok, err := model.Solve(basis)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("heuristics: final LPRR relaxation infeasible")
	}
	return allocationFromPinned(pr, model.Solution().Alpha, fixed), nil
}

func pin(model *core.Model, p core.Pair, v int) error {
	return model.SetBounds(p, core.BetaBounds{Lb: float64(v), Ub: float64(v)})
}

// allocationFromPinned assembles an integer-β allocation from relaxed
// α values whose remote backbone routes are all pinned.
func allocationFromPinned(pr *core.Problem, alpha [][]float64, fixed map[core.Pair]int) *core.Allocation {
	K := pr.K()
	alloc := core.NewAllocation(K)
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			a := alpha[k][l]
			if a < 0 {
				a = 0
			}
			alloc.Alpha[k][l] = a
		}
	}
	for p, v := range fixed {
		alloc.Beta[p.K][p.L] = v
		bw := pr.Platform.RouteBW(p.K, p.L)
		if !math.IsInf(bw, 1) {
			if capA := float64(v) * bw; alloc.Alpha[p.K][p.L] > capA {
				alloc.Alpha[p.K][p.L] = capA // absorb LP roundoff
			}
		}
	}
	return alloc
}
