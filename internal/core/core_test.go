package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/platgen"
)

// twoClusters builds a minimal platform: two clusters on routers 0,1
// joined by one backbone link.
func twoClusters(speed0, speed1, g0, g1, bw float64, maxcon int) *platform.Platform {
	p := &platform.Platform{
		Routers: 2,
		Links:   []platform.Link{{U: 0, V: 1, BW: bw, MaxConnect: maxcon}},
		Clusters: []platform.Cluster{
			{Name: "C0", Speed: speed0, Gateway: g0, Router: 0},
			{Name: "C1", Speed: speed1, Gateway: g1, Router: 1},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		panic(err)
	}
	return p
}

func randomProblem(seed int64, maxK int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	params := platgen.Params{
		K:             2 + rng.Intn(maxK-1),
		Connectivity:  0.2 + 0.6*rng.Float64(),
		Heterogeneity: 0.2 + 0.6*rng.Float64(),
		MeanG:         50 + 400*rng.Float64(),
		MeanBW:        10 + 80*rng.Float64(),
		MeanMaxCon:    5 + 30*rng.Float64(),
	}
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		panic(err)
	}
	return NewProblem(pl)
}

func TestNewProblemUnitPayoffs(t *testing.T) {
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	if len(pr.Payoffs) != 2 || pr.Payoffs[0] != 1 || pr.Payoffs[1] != 1 {
		t.Fatalf("payoffs = %v", pr.Payoffs)
	}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	if err := (&Problem{}).Validate(); err == nil {
		t.Fatal("nil platform must fail")
	}
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	pr.Payoffs = []float64{1}
	if err := pr.Validate(); err == nil {
		t.Fatal("payoff length mismatch must fail")
	}
	pr = NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	pr.Payoffs[0] = -1
	if err := pr.Validate(); err == nil {
		t.Fatal("negative payoff must fail")
	}
	pr.Payoffs[0] = math.NaN()
	if err := pr.Validate(); err == nil {
		t.Fatal("NaN payoff must fail")
	}
}

func TestObjectiveValues(t *testing.T) {
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	pr.Payoffs = []float64{2, 1}
	a := NewAllocation(2)
	a.Alpha[0][0] = 3 // α_0 = 3+1 = 4
	a.Alpha[0][1] = 1
	a.Alpha[1][1] = 6 // α_1 = 6
	if got := pr.Objective(SUM, a); got != 2*4+1*6 {
		t.Fatalf("SUM = %g", got)
	}
	if got := pr.Objective(MAXMIN, a); got != 6 { // min(2*4, 1*6)
		t.Fatalf("MAXMIN = %g", got)
	}
	// Zero payoffs are excluded from MAXMIN.
	pr.Payoffs = []float64{0, 1}
	if got := pr.Objective(MAXMIN, a); got != 6 {
		t.Fatalf("MAXMIN with zero payoff = %g", got)
	}
	pr.Payoffs = []float64{0, 0}
	if got := pr.Objective(MAXMIN, a); got != 0 {
		t.Fatalf("MAXMIN with all-zero payoffs = %g", got)
	}
}

func TestObjectiveStrings(t *testing.T) {
	if SUM.String() != "SUM" || MAXMIN.String() != "MAXMIN" {
		t.Fatal("objective names wrong")
	}
	if Objective(9).String() == "" {
		t.Fatal("unknown objective must format")
	}
}

func TestZeroAllocationAlwaysValid(t *testing.T) {
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	if err := pr.CheckAllocation(NewAllocation(2), DefaultTol); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAllocationViolations(t *testing.T) {
	mk := func() (*Problem, *Allocation) {
		pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
		return pr, NewAllocation(2)
	}
	t.Run("speed 7b", func(t *testing.T) {
		pr, a := mk()
		a.Alpha[0][0] = 150
		if err := pr.CheckAllocation(a, DefaultTol); err == nil {
			t.Fatal("overloaded cluster must fail 7b")
		}
	})
	t.Run("gateway 7c", func(t *testing.T) {
		pr, a := mk()
		a.Alpha[0][1] = 60 // exceeds gateway 50 even with enough β
		a.Beta[0][1] = 6
		if err := pr.CheckAllocation(a, DefaultTol); err == nil {
			t.Fatal("gateway overflow must fail 7c")
		}
	})
	t.Run("connections 7d", func(t *testing.T) {
		pr, a := mk()
		a.Beta[0][1] = 4 // maxConnect is 3
		if err := pr.CheckAllocation(a, DefaultTol); err == nil {
			t.Fatal("too many connections must fail 7d")
		}
	})
	t.Run("bandwidth 7e", func(t *testing.T) {
		pr, a := mk()
		a.Alpha[0][1] = 25 // 2 connections * bw 10 = 20 < 25
		a.Beta[0][1] = 2
		if err := pr.CheckAllocation(a, DefaultTol); err == nil {
			t.Fatal("route bandwidth overflow must fail 7e")
		}
	})
	t.Run("negative alpha 7f", func(t *testing.T) {
		pr, a := mk()
		a.Alpha[0][1] = -1
		if err := pr.CheckAllocation(a, DefaultTol); err == nil {
			t.Fatal("negative alpha must fail")
		}
	})
	t.Run("negative beta 7g", func(t *testing.T) {
		pr, a := mk()
		a.Beta[0][1] = -1
		if err := pr.CheckAllocation(a, DefaultTol); err == nil {
			t.Fatal("negative beta must fail")
		}
	})
	t.Run("diagonal beta", func(t *testing.T) {
		pr, a := mk()
		a.Beta[0][0] = 1
		if err := pr.CheckAllocation(a, DefaultTol); err == nil {
			t.Fatal("diagonal beta must fail")
		}
	})
	t.Run("valid remote", func(t *testing.T) {
		pr, a := mk()
		a.Alpha[0][1] = 20
		a.Beta[0][1] = 2
		a.Alpha[0][0] = 80
		if err := pr.CheckAllocation(a, DefaultTol); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCheckAllocationNoRoute(t *testing.T) {
	// Disconnected clusters: any remote α must be rejected.
	p := &platform.Platform{
		Routers: 2,
		Clusters: []platform.Cluster{
			{Name: "a", Speed: 10, Gateway: 10, Router: 0},
			{Name: "b", Speed: 10, Gateway: 10, Router: 1},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	pr := NewProblem(p)
	a := NewAllocation(2)
	a.Alpha[0][1] = 1
	if err := pr.CheckAllocation(a, DefaultTol); err == nil {
		t.Fatal("alpha across missing route must fail")
	}
}

func TestRelaxedTwoClusterSUM(t *testing.T) {
	// Two clusters, speeds 100 each, gateways 50, one link bw 10 and
	// maxcon 3. SUM optimum: each runs its own work locally at full
	// speed (100+100); remote shipping cannot add anything (speeds
	// saturated), so SUM = 200.
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	sol, ok, err := relaxed(pr.alphaLayout(), SUM)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(sol.Objective-200) > 1e-6 {
		t.Fatalf("SUM objective = %g, want 200", sol.Objective)
	}
}

func TestRelaxedAsymmetric(t *testing.T) {
	// Cluster 0 has speed 0 (pure source), cluster 1 speed 100.
	// Route bw 10 with maxcon 3 => at most 30 across backbone,
	// gateways 50 each. App 0 can ship min(30, 50, 100) = 30.
	pr := NewProblem(twoClusters(0, 100, 50, 50, 10, 3))
	pr.Payoffs = []float64{1, 0}
	sol, ok, err := relaxed(pr.alphaLayout(), SUM)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(sol.Objective-30) > 1e-6 {
		t.Fatalf("objective = %g, want 30", sol.Objective)
	}
	if math.Abs(sol.Alpha[0][1]-30) > 1e-6 {
		t.Fatalf("α_{0,1} = %g, want 30", sol.Alpha[0][1])
	}
	if math.Abs(sol.Beta[0][1]-3) > 1e-6 {
		t.Fatalf("β̃_{0,1} = %g, want 3", sol.Beta[0][1])
	}
}

func TestRelaxedMAXMINFairness(t *testing.T) {
	// Symmetric two-cluster platform with equal payoffs: MAXMIN
	// optimum gives both apps their local speed: min = 100.
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	sol, ok, err := relaxed(pr.alphaLayout(), MAXMIN)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(sol.Objective-100) > 1e-5 {
		t.Fatalf("MAXMIN objective = %g, want 100", sol.Objective)
	}
}

func TestRelaxedMAXMINPayoffWeighting(t *testing.T) {
	// Same platform, payoffs (2,1). MAXMIN maximizes min(2α_0, α_1).
	// App 1 runs 100 locally and ships 30 across the backbone
	// (3 connections x bw 10) into cluster 0's spare speed, while app
	// 0 computes 65 locally: min(2*65, 130) = 130.
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	pr.Payoffs = []float64{2, 1}
	sol, ok, err := relaxed(pr.alphaLayout(), MAXMIN)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(sol.Objective-130) > 1e-5 {
		t.Fatalf("MAXMIN objective = %g, want 130", sol.Objective)
	}
}

func TestRelaxedMAXMINNeedsPositivePayoff(t *testing.T) {
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	pr.Payoffs = []float64{0, 0}
	if _, _, err := relaxed(pr.alphaLayout(), MAXMIN); err == nil {
		t.Fatal("MAXMIN with all-zero payoffs must error")
	}
}

func TestMixedRelaxedAgreesWithReduced(t *testing.T) {
	// The β-elimination argument: with no branching bounds the full
	// (α,β) relaxation and the reduced α-space relaxation have the
	// same optimum, on random platforms and both objectives.
	for seed := int64(0); seed < 12; seed++ {
		pr := randomProblem(seed, 8)
		for _, obj := range []Objective{SUM, MAXMIN} {
			red, ok1, err1 := relaxed(pr.alphaLayout(), obj)
			mix, ok2, err2 := solveBoxed(pr, obj, nil)
			if err1 != nil || err2 != nil || !ok1 || !ok2 {
				t.Fatalf("seed %d %v: ok=(%v,%v) err=(%v,%v)", seed, obj, ok1, ok2, err1, err2)
			}
			tol := 1e-5 * (1 + math.Abs(red.Objective))
			if math.Abs(red.Objective-mix.Objective) > tol {
				t.Fatalf("seed %d %v: reduced %g vs mixed %g", seed, obj, red.Objective, mix.Objective)
			}
		}
	}
}

// solveBoxed cold-solves the explicit (α, β) relaxation on a fresh
// Model under the given β boxes.
func solveBoxed(pr *Problem, obj Objective, boxes map[Pair]BetaBounds) (*RelaxedSolution, bool, error) {
	m, err := pr.NewModel(obj)
	if err != nil {
		return nil, false, err
	}
	for p, b := range boxes {
		if err := m.SetBounds(p, b); err != nil {
			return nil, false, err
		}
	}
	_, ok, err := m.Solve(nil)
	return m.Solution(), ok, err
}

func TestMixedRelaxedBoundsBind(t *testing.T) {
	pr := NewProblem(twoClusters(0, 100, 50, 50, 10, 3))
	pr.Payoffs = []float64{1, 0}
	sol, ok, err := solveBoxed(pr, SUM, map[Pair]BetaBounds{{0, 1}: {Lb: 0, Ub: 2}})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(sol.Objective-20) > 1e-6 {
		t.Fatalf("objective with β≤2 = %g, want 20", sol.Objective)
	}
	// Lower bound alone must not change the optimum (β=3 is optimal).
	sol2, ok, err := solveBoxed(pr, SUM, map[Pair]BetaBounds{{0, 1}: {Lb: 2, Ub: -1}})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(sol2.Objective-30) > 1e-6 {
		t.Fatalf("objective with β≥2 = %g, want 30", sol2.Objective)
	}
}

func TestMixedRelaxedBadBounds(t *testing.T) {
	pr := NewProblem(twoClusters(0, 100, 50, 50, 10, 3))
	if _, _, err := solveBoxed(pr, SUM, map[Pair]BetaBounds{{0, 0}: {}}); err == nil {
		t.Fatal("bounds on a route without β variable must error")
	}
}

func TestMostFractional(t *testing.T) {
	// Zero cells are routes without a β variable (diagonal, missing
	// route, same router): integral, never a branching candidate.
	m := &RelaxedSolution{Beta: [][]float64{
		{0, 2.0, 0},
		{1.4, 0, 0.5},
		{0, 0, 0},
	}}
	p, ok := m.MostFractional(1e-6)
	if !ok || p != (Pair{1, 2}) {
		t.Fatalf("got %v ok=%v, want {1 2}", p, ok)
	}
	// Two equally fractional routes: the first in row-major order wins.
	m.Beta = [][]float64{
		{0, 3.0, 1.25},
		{0, 0, 0},
		{2.75, 0.25, 0},
	}
	p, ok = m.MostFractional(1e-6)
	if !ok || p != (Pair{0, 2}) {
		t.Fatalf("tie: got %v ok=%v, want {0 2}", p, ok)
	}
	m.Beta = [][]float64{{0, 3.0000000001}, {0, 0}}
	if _, ok := m.MostFractional(1e-6); ok {
		t.Fatal("near-integral β must report none")
	}
}

func TestCloneAllocation(t *testing.T) {
	a := NewAllocation(2)
	a.Alpha[0][1] = 5
	a.Beta[0][1] = 1
	b := a.Clone()
	b.Alpha[0][1] = 9
	b.Beta[0][1] = 3
	if a.Alpha[0][1] != 5 || a.Beta[0][1] != 1 {
		t.Fatal("clone shares storage")
	}
}

// TestPropertyRelaxedSolutionSatisfiesRelaxedConstraints: the LP
// solution, interpreted with fractional β, satisfies 7b/7c and per
// link Σ β̃ ≤ maxcon on random platforms.
func TestPropertyRelaxedSolutionSatisfiesRelaxedConstraints(t *testing.T) {
	prop := func(seed int64) bool {
		pr := randomProblem(seed, 8)
		sol, ok, err := relaxed(pr.alphaLayout(), SUM)
		if err != nil || !ok {
			return false
		}
		pl := pr.Platform
		K := pr.K()
		// 7b
		for l := 0; l < K; l++ {
			in := 0.0
			for k := 0; k < K; k++ {
				in += sol.Alpha[k][l]
			}
			if in > pl.Clusters[l].Speed*(1+1e-6)+1e-6 {
				return false
			}
		}
		// 7c
		for k := 0; k < K; k++ {
			tr := 0.0
			for l := 0; l < K; l++ {
				if l != k {
					tr += sol.Alpha[k][l] + sol.Alpha[l][k]
				}
			}
			if tr > pl.Clusters[k].Gateway*(1+1e-6)+1e-6 {
				return false
			}
		}
		// 7d with fractional β
		use := make([]float64, len(pl.Links))
		for k := 0; k < K; k++ {
			for l := 0; l < K; l++ {
				if k == l || sol.Beta[k][l] == 0 {
					continue
				}
				for _, li := range pl.Route(k, l).Links {
					use[li] += sol.Beta[k][l]
				}
			}
		}
		for li, u := range use {
			if u > float64(pl.Links[li].MaxConnect)*(1+1e-6)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMAXMINLeqSUM: for unit payoffs, K·MAXMIN <= SUM at
// their respective optima (the min cannot beat the mean).
func TestPropertyMAXMINLeqSUM(t *testing.T) {
	prop := func(seed int64) bool {
		pr := randomProblem(seed, 7)
		mm, ok1, err1 := relaxed(pr.alphaLayout(), MAXMIN)
		sm, ok2, err2 := relaxed(pr.alphaLayout(), SUM)
		if err1 != nil || err2 != nil || !ok1 || !ok2 {
			return false
		}
		return float64(pr.K())*mm.Objective <= sm.Objective*(1+1e-6)+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRelaxedSUMK15(b *testing.B) {
	pr := randomProblem(5, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := relaxed(pr.alphaLayout(), SUM); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelaxedMAXMINK15(b *testing.B) {
	pr := randomProblem(5, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := relaxed(pr.alphaLayout(), MAXMIN); err != nil {
			b.Fatal(err)
		}
	}
}
