package heuristics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/lp/lptest"
	"repro/internal/platgen"
)

// oracleBranchAndBound is the reference tree the production solver is
// checked against: the same depth-first search and LPRG incumbent as
// branchAndBound, but every node relaxation is program (7)
// written out afresh by denseRelaxation and cold-solved by the lptest
// dense-tableau oracle — no warm starts, no shared basis, and no code
// of core's model builder. budget=true reports that maxNodes ran out
// before the tree closed.
func oracleBranchAndBound(t *testing.T, pr *core.Problem, obj core.Objective, maxNodes int) (best float64, budget bool) {
	t.Helper()
	rel, err := Relax(pr, obj)
	if err != nil {
		t.Fatal(err)
	}
	incumbent := LPRG(pr, rel.RelaxedSolution)
	best = pr.Objective(obj, incumbent)
	stack := []map[core.Pair]core.BetaBounds{{}}
	for nodes := 0; len(stack) > 0; nodes++ {
		if nodes >= maxNodes {
			return best, true
		}
		bounds := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		alpha, beta, value, ok := denseRelaxation(t, pr, obj, bounds)
		if !ok || value <= best+1e-9*(1+math.Abs(best)) {
			continue
		}
		p, fractional := mostFractional(beta)
		if !fractional {
			cand := core.NewAllocation(pr.K())
			for k := range alpha {
				copy(cand.Alpha[k], alpha[k])
			}
			for k, row := range beta {
				for l, v := range row {
					cand.Beta[k][l] = int(math.Round(v))
				}
			}
			if err := pr.CheckAllocation(cand, core.DefaultTol); err != nil {
				t.Fatalf("oracle tree produced an invalid candidate: %v", err)
			}
			if val := pr.Objective(obj, cand); val > best {
				best = val
			}
			continue
		}
		floor := math.Floor(beta[p.K][p.L])
		down := cloneBounds(bounds)
		b := boundsOf(down, p)
		if b.Ub < 0 || floor < b.Ub {
			b.Ub = floor
		}
		down[p] = b
		up := cloneBounds(bounds)
		b = boundsOf(up, p)
		if floor+1 > b.Lb {
			b.Lb = floor + 1
		}
		up[p] = b
		stack = append(stack, down, up)
	}
	return best, false
}

// denseRelaxation writes program (7) with β relaxed down directly from
// the paper — α_{k,l} on every route and locally, β_{k,l} on every route
// that crosses a backbone link, rows (7b)-(7e), and MAXMIN as "maximize
// t" under t ≤ π_k Σ_l α_{k,l} — with each β in bounds's box (Ub < 0 is
// none), and solves it with the dense oracle. It returns the optimum's α
// and β tables and value, or ok=false when the box is infeasible.
func denseRelaxation(t *testing.T, pr *core.Problem, obj core.Objective, bounds map[core.Pair]core.BetaBounds) (alpha, beta [][]float64, value float64, ok bool) {
	t.Helper()
	pl, K := pr.Platform, pr.K()
	av, bv := make([][]int, K), make([][]int, K) // column of α_{k,l} / β_{k,l}, -1 for none
	n := 0
	for k := 0; k < K; k++ {
		av[k], bv[k] = make([]int, K), make([]int, K)
		for l := 0; l < K; l++ {
			av[k][l], bv[k][l] = -1, -1
			if l == k || pl.Route(k, l).Exists {
				av[k][l] = n
				n++
			}
		}
	}
	for k := 0; k < K; k++ {
		for l := 0; l < K; l++ {
			if l != k && pl.Route(k, l).Exists && !math.IsInf(pl.RouteBW(k, l), 1) {
				bv[k][l] = n
				n++
			}
		}
	}
	level := n
	if obj == core.MAXMIN {
		n++
	}
	prob := lp.New(n)
	if obj == core.MAXMIN {
		prob.SetObjective(level, 1)
	}
	speed := make([][]lp.Term, K)
	gateway := make([][]lp.Term, K)
	links := make([][]lp.Term, len(pl.Links))
	for k := 0; k < K; k++ {
		var own []lp.Term
		for l := 0; l < K; l++ {
			j := av[k][l]
			if j < 0 {
				continue
			}
			if obj == core.SUM {
				prob.SetObjective(j, pr.Payoffs[k])
			}
			own = append(own, lp.Term{Var: j, Coeff: -pr.Payoffs[k]})
			speed[l] = append(speed[l], lp.Term{Var: j, Coeff: 1})
			if l != k {
				gateway[k] = append(gateway[k], lp.Term{Var: j, Coeff: 1})
				gateway[l] = append(gateway[l], lp.Term{Var: j, Coeff: 1})
			}
			if b := bv[k][l]; b >= 0 {
				prob.AddConstraint([]lp.Term{{Var: j, Coeff: 1}, {Var: b, Coeff: -pl.RouteBW(k, l)}}, lp.LE, 0) // (7e)
				for _, li := range pl.Route(k, l).Links {
					links[li] = append(links[li], lp.Term{Var: b, Coeff: 1})
				}
				box := boundsOf(bounds, core.Pair{K: k, L: l})
				ub := math.Inf(1)
				if box.Ub >= 0 {
					ub = box.Ub
				}
				if box.Lb > ub {
					return nil, nil, 0, false
				}
				prob.SetVarBounds(b, box.Lb, ub)
			}
		}
		if obj == core.MAXMIN && pr.Payoffs[k] > 0 {
			prob.AddConstraint(append(own, lp.Term{Var: level, Coeff: 1}), lp.LE, 0)
		}
	}
	for l := 0; l < K; l++ {
		prob.AddConstraint(speed[l], lp.LE, pl.Clusters[l].Speed)     // (7b)
		prob.AddConstraint(gateway[l], lp.LE, pl.Clusters[l].Gateway) // (7c)
	}
	for li, terms := range links {
		prob.AddConstraint(terms, lp.LE, float64(pl.Links[li].MaxConnect)) // (7d)
	}
	sol, err := lptest.DenseSolver{}.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		return nil, nil, 0, false
	}
	alpha, beta = make([][]float64, K), make([][]float64, K)
	for k := 0; k < K; k++ {
		alpha[k], beta[k] = make([]float64, K), make([]float64, K)
		for l := 0; l < K; l++ {
			if j := av[k][l]; j >= 0 {
				alpha[k][l] = max(sol.X[j], 0)
			}
			if j := bv[k][l]; j >= 0 {
				beta[k][l] = max(sol.X[j], 0)
			}
		}
	}
	return alpha, beta, sol.Objective, true
}

// mostFractional is core.RelaxedSolution.MostFractional over a β table:
// the route farthest from an integer, the first in row-major order on a
// tie, or ok=false when every β is integral within core.IntegralityTol.
func mostFractional(beta [][]float64) (p core.Pair, ok bool) {
	bestFrac := core.IntegralityTol
	for k, row := range beta {
		for l, v := range row {
			if frac := math.Abs(v - math.Round(v)); frac > bestFrac {
				bestFrac, p, ok = frac, core.Pair{K: k, L: l}, true
			}
		}
	}
	return p, ok
}

// TestBranchAndBoundMatchesOracleTree is the end-to-end acceptance
// check of the warm-started tree: on randomized network-bound
// platforms it must prove the same optimum (Δobj ≤ 1e-9 relative) as a
// tree whose every node is cold-solved by the dense-tableau oracle.
// Seeds 0–11 are bound by link budgets; seeds 12–23 by gateways, at
// Table 1's smallest mean gateway (50) with links that carry four times
// that, so an encoding that gets (7c) wrong fails here too.
func TestBranchAndBoundMatchesOracleTree(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		params := platgen.Params{
			K:             4 + int(seed%3),
			Connectivity:  0.6,
			Heterogeneity: 0.6,
			MeanG:         450,
			MeanBW:        10,
			MeanMaxCon:    5,
		}
		if seed >= 12 {
			params.MeanG, params.MeanBW, params.MeanMaxCon = 50, 20, 10
		}
		pl, err := platgen.Generate(params, rng)
		if err != nil {
			t.Fatal(err)
		}
		pr := core.NewProblem(pl)
		for i := range pr.Payoffs {
			pr.Payoffs[i] = float64(1 + rng.Intn(3))
		}
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			_, warm, err := solveBnB(t, pr, obj, 4000)
			if err != nil && err != ErrNodeBudget {
				t.Fatalf("seed %d %v: warm: %v", seed, obj, err)
			}
			ref, refBudget := oracleBranchAndBound(t, pr, obj, 4000)
			if err == ErrNodeBudget || refBudget {
				continue // incumbents are only lower bounds; skip comparison
			}
			if math.Abs(warm-ref) > 1e-9*(1+math.Abs(ref)) {
				t.Fatalf("seed %d %v: warm optimum %.12g, oracle-tree optimum %.12g", seed, obj, warm, ref)
			}
			compared++
		}
	}
	t.Logf("%d of 48 optima compared", compared)
}
