package heuristics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/platgen"
)

// star builds a platform with one source cluster (speed srcSpeed) and
// n worker clusters of speed 100, all pairwise links from the source
// router, each bw/maxcon as given, gateways 1000 (non-binding).
func star(srcSpeed float64, n int, bw float64, maxcon int) *platform.Platform {
	p := &platform.Platform{Routers: n + 1}
	p.Clusters = append(p.Clusters, platform.Cluster{Name: "src", Speed: srcSpeed, Gateway: 1000, Router: 0})
	for i := 1; i <= n; i++ {
		p.Clusters = append(p.Clusters, platform.Cluster{Name: "w", Speed: 100, Gateway: 1000, Router: i})
		p.Links = append(p.Links, platform.Link{U: 0, V: i, BW: bw, MaxConnect: maxcon})
	}
	if err := p.ComputeRoutes(); err != nil {
		panic(err)
	}
	return p
}

func randomProblem(seed int64, maxK int) *core.Problem {
	rng := rand.New(rand.NewSource(seed))
	params := platgen.Params{
		K:             2 + rng.Intn(maxK-1),
		Connectivity:  0.2 + 0.6*rng.Float64(),
		Heterogeneity: 0.2 + 0.6*rng.Float64(),
		MeanG:         50 + 400*rng.Float64(),
		MeanBW:        10 + 80*rng.Float64(),
		MeanMaxCon:    2 + 20*rng.Float64(),
	}
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		panic(err)
	}
	return core.NewProblem(pl)
}

func TestGreedyFullDrainLocalSaturation(t *testing.T) {
	// Single cluster: the full-drain variant allocates all local
	// speed, while the paper-faithful G strands it (its §5.1 local
	// guard is zero when no other cluster exists).
	p := &platform.Platform{Routers: 1, Clusters: []platform.Cluster{{Name: "c", Speed: 100, Gateway: 50, Router: 0}}}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	pr := core.NewProblem(p)
	a := GreedyFullDrain(pr)
	if math.Abs(a.Alpha[0][0]-100) > 1e-9 {
		t.Fatalf("full drain: α_{0,0} = %g, want 100", a.Alpha[0][0])
	}
	if err := pr.CheckAllocation(a, core.DefaultTol); err != nil {
		t.Fatal(err)
	}
	g := Greedy(pr)
	if g.AppThroughput(0) != 0 {
		t.Fatalf("paper G on an isolated cluster = %g, want 0 (stranded)", g.AppThroughput(0))
	}
}

func TestGreedyFullDrainDominatesG(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		pr := randomProblem(seed, 10)
		g := pr.Objective(core.SUM, Greedy(pr))
		gf := pr.Objective(core.SUM, GreedyFullDrain(pr))
		if gf < g-1e-6*(1+g) {
			t.Fatalf("seed %d: G-FULL %g < G %g", seed, gf, g)
		}
	}
}

func TestGreedyFullDrainReachesTrivialSUMOptimum(t *testing.T) {
	// With unit payoffs the SUM relaxation optimum is Σ s_k (all
	// work local); the full-drain variant always attains it.
	for seed := int64(0); seed < 8; seed++ {
		pr := randomProblem(seed, 8)
		rel, err := Relax(pr, core.SUM)
		if err != nil {
			t.Fatal(err)
		}
		ub := rel.Objective
		got := pr.Objective(core.SUM, GreedyFullDrain(pr))
		if math.Abs(got-ub) > 1e-6*(1+ub) {
			t.Fatalf("seed %d: G-FULL SUM %g != LP %g", seed, got, ub)
		}
	}
}

func TestGreedyUsesRemoteWorkers(t *testing.T) {
	// Source with zero speed must ship work to the workers.
	pr := core.NewProblem(star(0, 3, 10, 2))
	pr.Payoffs = []float64{1, 0, 0, 0}
	a := Greedy(pr)
	if err := pr.CheckAllocation(a, core.DefaultTol); err != nil {
		t.Fatal(err)
	}
	// 3 workers x 2 connections x bw 10 = 60 achievable.
	if got := a.AppThroughput(0); math.Abs(got-60) > 1e-6 {
		t.Fatalf("throughput = %g, want 60", got)
	}
	for l := 1; l <= 3; l++ {
		if a.Beta[0][l] != 2 {
			t.Fatalf("β_{0,%d} = %d, want 2", l, a.Beta[0][l])
		}
	}
}

func TestGreedyRespectsZeroPayoff(t *testing.T) {
	pr := core.NewProblem(star(100, 2, 10, 2))
	pr.Payoffs = []float64{1, 0, 0}
	a := Greedy(pr)
	if err := pr.CheckAllocation(a, core.DefaultTol); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		if a.AppThroughput(k) != 0 {
			t.Fatalf("zero-payoff app %d got throughput %g", k, a.AppThroughput(k))
		}
	}
	// App 0 should still get its local speed plus remote capacity.
	if got := a.AppThroughput(0); got < 100 {
		t.Fatalf("app 0 throughput = %g, want >= 100", got)
	}
}

// TestGreedyAtBudgetCeiling: G's step cap adds the link budgets up, so
// on a platform whose every link sits at platform.MaxConnectCeiling the
// loop must still run and return a valid, non-empty allocation.
func TestGreedyAtBudgetCeiling(t *testing.T) {
	pl, err := platgen.Generate(platgen.Params{
		K: 4, Connectivity: 0.9, Heterogeneity: 0.4, MeanG: 250, MeanBW: 50, MeanMaxCon: 15,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for li := range pl.Links {
		pl.Links[li].MaxConnect = platform.MaxConnectCeiling
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	pr := core.NewProblem(pl)
	a := Greedy(pr)
	if err := pr.CheckAllocation(a, core.DefaultTol); err != nil {
		t.Fatal(err)
	}
	if v := pr.Objective(core.MAXMIN, a); v <= 0 {
		t.Fatalf("MAXMIN(G) = %g at the budget ceiling, want > 0", v)
	}
}

func TestGreedyFairnessUnderContention(t *testing.T) {
	// Two symmetric clusters with equal payoffs: greedy should treat
	// them symmetrically (equal throughput).
	p := &platform.Platform{
		Routers: 2,
		Links:   []platform.Link{{U: 0, V: 1, BW: 10, MaxConnect: 3}},
		Clusters: []platform.Cluster{
			{Name: "a", Speed: 100, Gateway: 50, Router: 0},
			{Name: "b", Speed: 100, Gateway: 50, Router: 1},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	pr := core.NewProblem(p)
	a := Greedy(pr)
	if err := pr.CheckAllocation(a, core.DefaultTol); err != nil {
		t.Fatal(err)
	}
	t0, t1 := a.AppThroughput(0), a.AppThroughput(1)
	if math.Abs(t0-t1) > 1e-6 {
		t.Fatalf("asymmetric throughputs %g vs %g", t0, t1)
	}
}

func TestLPRNeverExceedsRelaxation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		pr := randomProblem(seed, 8)
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			rel, err := Relax(pr, obj)
			if err != nil {
				t.Fatal(err)
			}
			ub := rel.Objective
			a := LPR(pr, rel.RelaxedSolution)
			if err := pr.CheckAllocation(a, core.DefaultTol); err != nil {
				t.Fatalf("seed %d %v: %v", seed, obj, err)
			}
			if v := pr.Objective(obj, a); v > ub*(1+1e-6)+1e-6 {
				t.Fatalf("seed %d %v: LPR %g beats upper bound %g", seed, obj, v, ub)
			}
		}
	}
}

func TestLPRGDominatesLPR(t *testing.T) {
	// LPRG = LPR + greedy refinement, so its objective can only be
	// at least LPR's.
	for seed := int64(0); seed < 12; seed++ {
		pr := randomProblem(seed, 9)
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			rel, err := Relax(pr, obj)
			if err != nil {
				t.Fatal(err)
			}
			lpr, lprg := LPR(pr, rel.RelaxedSolution), LPRG(pr, rel.RelaxedSolution)
			if err := pr.CheckAllocation(lprg, core.DefaultTol); err != nil {
				t.Fatalf("seed %d %v: %v", seed, obj, err)
			}
			vr, vg := pr.Objective(obj, lpr), pr.Objective(obj, lprg)
			if vg < vr-1e-6*(1+math.Abs(vr)) {
				t.Fatalf("seed %d %v: LPRG %g < LPR %g", seed, obj, vg, vr)
			}
		}
	}
}

func TestLPRRProducesValidAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for seed := int64(0); seed < 6; seed++ {
		pr := randomProblem(seed, 6)
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			for _, variant := range []Name{NameLPRR, NameLPRREQ} {
				rel, err := Relax(pr, obj)
				if err != nil {
					t.Fatal(err)
				}
				a, err := lprr(pr, rel, variant, rng)
				if err != nil {
					t.Fatalf("seed %d %v %v: %v", seed, obj, variant, err)
				}
				if err := pr.CheckAllocation(a, core.DefaultTol); err != nil {
					t.Fatalf("seed %d %v %v: %v", seed, obj, variant, err)
				}
				ub := rel.Objective
				if v := pr.Objective(obj, a); v > ub*(1+1e-6)+1e-6 {
					t.Fatalf("seed %d: LPRR %g beats upper bound %g", seed, v, ub)
				}
			}
		}
	}
}

func TestLPRRExactWhenRelaxationIntegral(t *testing.T) {
	// Star with integral optimum: β̃ values are integral, so LPRR
	// must recover exactly the relaxation's objective.
	pr := core.NewProblem(star(0, 2, 10, 2))
	pr.Payoffs = []float64{1, 0, 0}
	rng := rand.New(rand.NewSource(1))
	rel, err := Relax(pr, core.SUM)
	if err != nil {
		t.Fatal(err)
	}
	a, err := lprr(pr, rel, NameLPRR, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.Objective(core.SUM, a); math.Abs(got-40) > 1e-5 {
		t.Fatalf("LPRR objective = %g, want 40 (2 workers x 2 conns x bw 10)", got)
	}
}

// solveBnB is branch-and-bound from pr's relaxation under obj, as Run
// runs it: the incumbent, its value and ErrNodeBudget when the search
// ran out of nodes.
func solveBnB(t testing.TB, pr *core.Problem, obj core.Objective, maxNodes int) (*core.Allocation, float64, error) {
	t.Helper()
	rel, err := Relax(pr, obj)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(NameBnB, pr, rel, nil, maxNodes)
	return r.Alloc, r.Value, err
}

func TestBranchAndBoundMatchesRelaxationWhenIntegral(t *testing.T) {
	pr := core.NewProblem(star(0, 2, 10, 2))
	pr.Payoffs = []float64{1, 0, 0}
	alloc, val, err := solveBnB(t, pr, core.SUM, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-40) > 1e-5 {
		t.Fatalf("BnB value = %g, want 40", val)
	}
	if err := pr.CheckAllocation(alloc, core.DefaultTol); err != nil {
		t.Fatal(err)
	}
}

func TestBranchAndBoundBeatsOrMatchesHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for seed := int64(0); seed < 6; seed++ {
		pr := randomProblem(seed, 5)
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			_, exact, err := solveBnB(t, pr, obj, 20000)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, obj, err)
			}
			rel, err := Relax(pr, obj)
			if err != nil {
				t.Fatal(err)
			}
			ub := rel.Objective
			if exact > ub*(1+1e-6)+1e-6 {
				t.Fatalf("seed %d %v: exact %g beats LP bound %g", seed, obj, exact, ub)
			}
			for _, name := range []Name{NameG, NameLPR, NameLPRG} {
				r, err := Run(name, pr, rel, rng, 0)
				if err != nil {
					t.Fatal(err)
				}
				if r.Value > exact*(1+1e-5)+1e-5 {
					t.Fatalf("seed %d %v: %s=%g beats exact optimum %g", seed, obj, name, r.Value, exact)
				}
			}
		}
	}
}

func TestRunDispatch(t *testing.T) {
	pr := randomProblem(3, 5)
	rng := rand.New(rand.NewSource(2))
	rel, err := Relax(pr, core.SUM)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range All {
		r, err := Run(name, pr, rel, rng, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Heuristic != name || r.Alloc == nil {
			t.Fatalf("%s: bad result %+v", name, r)
		}
		if err := pr.CheckAllocation(r.Alloc, core.DefaultTol); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(r.Value-pr.Objective(core.SUM, r.Alloc)) > 1e-12 {
			t.Fatalf("%s: Value field inconsistent", name)
		}
	}
	if _, err := Run("nope", pr, rel, rng, 0); err == nil {
		t.Fatal("unknown heuristic must error")
	}
	if _, err := Run(NameLPRR, pr, rel, nil, 0); err == nil {
		t.Fatal("LPRR without rng must error")
	}
	for _, name := range []Name{NameLPR, NameLPRG} {
		if _, err := Run(name, pr, nil, rng, 0); err == nil {
			t.Fatalf("%s without the relaxation must error", name)
		}
	}
}

func TestRunDeterministicHeuristicsStable(t *testing.T) {
	pr := randomProblem(11, 7)
	rel, err := Relax(pr, core.SUM)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Run(NameG, pr, rel, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(NameG, pr, rel, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Value != a2.Value {
		t.Fatalf("greedy not deterministic: %g vs %g", a1.Value, a2.Value)
	}
}

// TestPropertyAllHeuristicsValidAndBounded is the paper's implicit
// contract: every heuristic returns a valid allocation (Eq. 7) whose
// objective does not exceed the LP upper bound.
func TestPropertyAllHeuristicsValidAndBounded(t *testing.T) {
	prop := func(seed int64) bool {
		pr := randomProblem(seed, 7)
		rng := rand.New(rand.NewSource(seed + 1))
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			rel, err := Relax(pr, obj)
			if err != nil {
				return false
			}
			ub := rel.Objective
			for _, name := range []Name{NameG, NameLPR, NameLPRG, NameLPRR} {
				r, err := Run(name, pr, rel, rng, 0)
				if err != nil {
					return false
				}
				if err := pr.CheckAllocation(r.Alloc, core.DefaultTol); err != nil {
					t.Logf("seed %d %s %v: %v", seed, name, obj, err)
					return false
				}
				if r.Value > ub*(1+1e-5)+1e-5 {
					t.Logf("seed %d %s %v: value %g > bound %g", seed, name, obj, r.Value, ub)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedyK20(b *testing.B) {
	pr := randomProblem(5, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(pr)
	}
}

func BenchmarkLPRGK10(b *testing.B) {
	pr := randomProblem(5, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := Relax(pr, core.SUM)
		if err != nil {
			b.Fatal(err)
		}
		LPRG(pr, rel.RelaxedSolution)
	}
}

func BenchmarkLPRRK6(b *testing.B) {
	pr := randomProblem(5, 6)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := Relax(pr, core.SUM)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lprr(pr, rel, NameLPRR, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLPRRSharesTheRelaxation: the heuristics that pin, run through Run
// on one Relaxation — LPRR, then LPRR-EQ, then LPRR again, then
// branch-and-bound, so every later run starts from a model an earlier
// one pinned — answer every run bit for bit as the same run on a fresh
// Relaxation of its own does, with the same coins, on network-bound
// platforms where the pins move the vertex. After the last, Run has left
// the shared model on its frozen root: a warm solve from Root takes no
// pivot and lands on the same solve of a fresh Relax frozen at its root,
// bit for bit. Run's rewind after a pin is what a §6 record relies on;
// skipping it fails here.
func TestLPRRSharesTheRelaxation(t *testing.T) {
	pins := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pl, err := platgen.Generate(platgen.Params{K: 4 + int(seed), Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5}, rng)
		if err != nil {
			t.Fatal(err)
		}
		pr := core.NewProblem(pl)
		for i := range pr.Payoffs {
			pr.Payoffs[i] = float64(1 + i%3)
		}
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			rel, err := Relax(pr, obj)
			if err != nil {
				t.Fatal(err)
			}
			for i, name := range []Name{NameLPRR, NameLPRREQ, NameLPRR, NameBnB} {
				got, err := Run(name, pr, rel, rand.New(rand.NewSource(int64(i))), 2000)
				if err != nil && err != ErrNodeBudget {
					t.Fatal(err)
				}
				fresh, err := Relax(pr, obj)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(name, pr, fresh, rand.New(rand.NewSource(int64(i))), 2000)
				if err != nil && err != ErrNodeBudget {
					t.Fatal(err)
				}
				if d := allocDiff(got.Alloc, want.Alloc); d != "" {
					t.Fatalf("seed %d %v run %d (%s): shared relaxation %s", seed, obj, i, name, d)
				}
				pins += int(fresh.model.SolverStats().WarmSolves)
			}
			fresh, err := Relax(pr, obj)
			if err != nil {
				t.Fatal(err)
			}
			pivots := rel.model.SolverStats().Pivots
			if _, _, err := rel.model.Solve(rel.Root); err != nil {
				t.Fatal(err)
			}
			if p := rel.model.SolverStats().Pivots - pivots; p != 0 {
				t.Fatalf("seed %d %v: the warm solve from the root took %d pivots after the runs", seed, obj, p)
			}
			if err := fresh.model.Freeze(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := fresh.model.Solve(fresh.Root); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snapshotCells(rel.model.Solution()), snapshotCells(fresh.model.Solution())) {
				t.Fatalf("seed %d %v: the runs left the model off its root", seed, obj)
			}
		}
	}
	if pins == 0 {
		t.Fatal("no run re-solved after a pin; nothing was checked")
	}
}
