package heuristics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/lp/lptest"
	"repro/internal/platgen"
)

// oracleBranchAndBound is the reference tree the production solver is
// checked against: the same depth-first search and LPRG incumbent as
// BranchAndBoundOnModel, but every node relaxation is a cold solve by
// the lptest dense-tableau oracle — no warm starts, no shared basis.
// budget=true reports that maxNodes ran out before the tree closed.
func oracleBranchAndBound(t *testing.T, pr *core.Problem, obj core.Objective, maxNodes int) (best float64, budget bool) {
	t.Helper()
	model, err := pr.NewModel(obj)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Relax(pr, obj)
	if err != nil {
		t.Fatal(err)
	}
	incumbent := LPRG(pr, rel)
	best = pr.Objective(obj, incumbent)
	stack := []map[core.Pair]core.BetaBounds{{}}
	for nodes := 0; len(stack) > 0; nodes++ {
		if nodes >= maxNodes {
			return best, true
		}
		bounds := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		model.ResetBounds()
		for p, b := range bounds {
			if err := model.SetBounds(p, b); err != nil {
				t.Fatal(err)
			}
		}
		rel, ok, err := model.SolveWith(lptest.DenseSolver{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok || rel.Objective <= best+1e-9*(1+math.Abs(best)) {
			continue
		}
		p, fractional := rel.MostFractional(core.IntegralityTol)
		if !fractional {
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
				t.Fatalf("oracle tree produced an invalid candidate: %v", err)
			}
			if val := pr.Objective(obj, cand); val > best {
				best = val
			}
			continue
		}
		floor := math.Floor(rel.Beta[p.K][p.L])
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

// TestBranchAndBoundMatchesOracleTree is the end-to-end acceptance
// check of the warm-started tree: on randomized network-bound
// platforms it must prove the same optimum (Δobj ≤ 1e-9 relative) as a
// tree whose every node is cold-solved by the dense-tableau oracle.
func TestBranchAndBoundMatchesOracleTree(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		params := platgen.Params{
			K:             4 + int(seed%3),
			Connectivity:  0.6,
			Heterogeneity: 0.6,
			MeanG:         450,
			MeanBW:        10,
			MeanMaxCon:    5,
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
			_, warm, err := BranchAndBound(pr, obj, 4000)
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
		}
	}
}
