package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
)

// LexMaxMinSolution is the lexicographic max-min optimum of the
// rational relaxation: Levels[k] is the payoff level π_k·α_k
// guaranteed to application k, and the level vector, sorted
// ascending, is lexicographically maximal over all valid rational
// allocations. Applications with π_k ≤ 0 are excluded (Levels 0).
type LexMaxMinSolution struct {
	Alpha  [][]float64
	Levels []float64
}

// LexMaxMin computes the lexicographic max-min fair relaxation — the
// full MAX-MIN fairness of Bertsekas & Gallager that the paper cites
// for its Equation (6) objective. Plain MAXMIN only maximizes the
// worst payoff; the lexicographic refinement then maximizes the
// second worst among allocations preserving the first, and so on.
//
// The classical algorithm runs in rounds: maximize the common level t
// of all unfixed applications (holding fixed ones at their levels),
// then mark as fixed every application that cannot individually rise
// above t (tested with one LP per candidate). Each round fixes at
// least one application, so at most K rounds — O(K²) LP solves, the
// same complexity class as LPRR.
func (pr *Problem) LexMaxMin() (*LexMaxMinSolution, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	K := pr.K()
	fixed := make([]bool, K)
	levels := make([]float64, K)
	active := 0
	for k := 0; k < K; k++ {
		if pr.Payoffs[k] > 0 {
			active++
		} else {
			fixed[k] = true
		}
	}
	if active == 0 {
		return nil, fmt.Errorf("core: LexMaxMin with no positive payoff")
	}

	var lastAlpha [][]float64
	for active > 0 {
		t, alpha, err := pr.lexRound(fixed, levels, -1)
		if err != nil {
			return nil, err
		}
		lastAlpha = alpha
		// Which unfixed applications are stuck at t? Test each by
		// maximizing it alone subject to everyone else's floor.
		stuck := make([]int, 0, active)
		for k := 0; k < K; k++ {
			if fixed[k] {
				continue
			}
			probe := make([]float64, K)
			copy(probe, levels)
			for j := 0; j < K; j++ {
				if !fixed[j] && j != k {
					probe[j] = t
				}
			}
			solo := slices.Repeat([]bool{true}, K) // everyone fixed but k
			solo[k] = false
			best, _, err := pr.lexRound(solo, probe, k)
			if err != nil {
				return nil, err
			}
			if best <= t+1e-7*(1+math.Abs(t)) {
				stuck = append(stuck, k)
			}
		}
		if len(stuck) == 0 {
			// Numerical degeneracy: fix everyone at t to guarantee
			// progress (they are all at least t).
			for k := 0; k < K; k++ {
				if !fixed[k] {
					stuck = append(stuck, k)
				}
			}
		}
		for _, k := range stuck {
			fixed[k] = true
			levels[k] = t
			active--
		}
	}
	return &LexMaxMinSolution{Alpha: lastAlpha, Levels: levels}, nil
}

// lexRound solves one step of the lexicographic algorithm: maximize
// the common payoff level t of the unfixed applications, subject to
// every fixed application keeping at least its recorded level. When
// soloApp >= 0 the objective instead maximizes that single
// application's payoff (the stuck test). Returns the optimum and the
// α matrix attaining it.
func (pr *Problem) lexRound(fixed []bool, levels []float64, soloApp int) (float64, [][]float64, error) {
	lay := pr.alphaLayout()
	prob := lp.New(len(lay.vars) + 1)
	prob.SetObjective(len(lay.vars), 1) // maximize the level t
	if soloApp >= 0 {
		// t <= π_solo·α_solo, maximize t (equivalently maximize the
		// solo payoff, but keeps the objective uniform).
		lay.addLevelRow(prob, soloApp)
	} else {
		for k := range pr.Payoffs {
			if !fixed[k] && pr.Payoffs[k] > 0 {
				lay.addLevelRow(prob, k)
			}
		}
	}
	// Floors for fixed applications.
	for k := range pr.Payoffs {
		if !fixed[k] || pr.Payoffs[k] <= 0 || levels[k] <= 0 {
			continue
		}
		prob.AddConstraint(lay.appTerms(nil, k, pr.Payoffs[k]), lp.GE, levels[k])
	}
	// Platform constraints (7b), (7c), (7d)+(7e) in α-space.
	lay.addClusterRows(prob)
	lay.addAlphaLinkRows(prob)

	sol, err := prob.Solve()
	if err != nil {
		return 0, nil, err
	}
	if sol.Status != lp.Optimal {
		return 0, nil, fmt.Errorf("core: lexicographic round %v (floors should always be feasible)", sol.Status)
	}
	return sol.Objective, lay.alphaSpaceSolution(sol).Alpha, nil
}
