package heuristics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/platgen"
)

// §3.1's extension, several applications per origin: program (7) is
// core.RelaxedApps and the §5.1 greedy is greedyFill, each the one
// implementation that also serves one application per cluster. These
// tests hold the extension's claims; no program runs it.

// greedyApps is Greedy for any set of applications on platform pl, in
// core.RelaxedApps' layout: application a has origin C^origins[a] and
// payoff payoffs[a], and the returned allocation has one α row per
// application. The applications of one origin share its routes'
// budgets, and each remote step opens a connection of its own: spare
// capacity on one opened earlier never helps (DESIGN.md "Heuristics
// (§5)").
func greedyApps(pl *platform.Platform, origins []int, payoffs []float64) *core.Allocation {
	K := pl.K()
	alloc := &core.Allocation{Alpha: make([][]float64, len(origins)), Beta: make([][]int, K)}
	for a := range alloc.Alpha {
		alloc.Alpha[a] = make([]float64, K)
	}
	for k := range alloc.Beta {
		alloc.Beta[k] = make([]int, K)
	}
	greedyFill(pl, origins, payoffs, platform.NewResidual(pl), alloc, false)
	return alloc
}

// checkApps verifies al, one α row per application a of origin
// origins[a], against program (7) within tolerance tol. What is per
// application is checked here: α_{a,l} ≥ −tol, and α_{a,l} ≤ tol off the
// routes a's origin has. The rest is core.Problem.CheckAllocation on the
// allocation pooled by origin, α_{k,l} = Σ_{a of origin k} α_{a,l} with
// β as given. A pooled check alone would pass α_{u,l} = −5 beside
// α_{v,l} = +5 from one origin.
func checkApps(pl *platform.Platform, origins []int, al *core.Allocation, tol float64) error {
	K := pl.K()
	if len(al.Alpha) != len(origins) {
		return fmt.Errorf("%d alpha rows for %d applications", len(al.Alpha), len(origins))
	}
	pooled := core.NewAllocation(K)
	pooled.Beta = al.Beta
	for a, k := range origins {
		if len(al.Alpha[a]) != K {
			return fmt.Errorf("alpha row %d has wrong width", a)
		}
		for l, v := range al.Alpha[a] {
			if v < -tol {
				return fmt.Errorf("α_{%d,%d} = %g < 0", a, l, v)
			}
			if l != k && v > tol && !pl.Route(k, l).Exists {
				return fmt.Errorf("α_{%d,%d} over nonexistent route", a, l)
			}
			pooled.Alpha[k][l] += v
		}
	}
	return (&core.Problem{Platform: pl}).CheckAllocation(pooled, tol)
}

// twoRouters is two clusters of speed 100 and gateway 50 joined by one
// link of bandwidth 10 and 3 connections.
func twoRouters(t testing.TB) *platform.Platform {
	t.Helper()
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
	return p
}

func TestSingleAppPerClusterMatchesCore(t *testing.T) {
	// With exactly one app per cluster the multi-app relaxation
	// (core.RelaxedApps, the α-space encoding) has the optimum of the
	// relaxation every heuristic rounds (Relax, the (α, β) encoding) —
	// one program, so the bounds agree to 1e-9 — and the multi-app
	// greedy is Greedy, one §5.1 loop, so every α and β of theirs agree
	// bit for bit: on the
	// generated platform, and with its link budgets scaled into
	// [0, nominal], link 0's to zero; with unit payoffs, and with payoffs
	// of 0, 1 and 2 in turn.
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 8; seed++ {
		params := platgen.Params{
			K:             2 + rng.Intn(6),
			Connectivity:  0.3 + 0.5*rng.Float64(),
			Heterogeneity: 0.4,
			MeanG:         150,
			MeanBW:        40,
			MeanMaxCon:    8,
		}
		pl, err := platgen.Generate(params, rng)
		if err != nil {
			t.Fatal(err)
		}
		squeezed := pl.Clone()
		srng := rand.New(rand.NewSource(seed)) // leaves rng's platform sequence as it was
		for li := range squeezed.Links {
			squeezed.Links[li].MaxConnect = srng.Intn(pl.Links[li].MaxConnect + 1)
		}
		if len(squeezed.Links) > 0 {
			squeezed.Links[0].MaxConnect = 0
		}
		for _, p := range []*platform.Platform{pl, squeezed} {
			for _, zeroed := range []bool{false, true} {
				cp := core.NewProblem(p)
				origins := make([]int, p.K())
				for k := range origins {
					if zeroed {
						cp.Payoffs[k] = float64((k + int(seed)) % 3)
					}
					origins[k] = k
				}
				at := fmt.Sprintf("seed %d (squeezed %v, zeroed %v)", seed, p == squeezed, zeroed)
				if d := allocDiff(greedyApps(p, origins, cp.Payoffs), Greedy(cp)); d != "" {
					t.Fatalf("%s: greedy %s", at, d)
				}
				for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
					want, err := Relax(cp, obj)
					if err != nil {
						t.Fatal(err)
					}
					got, ok, err := core.RelaxedApps(p, origins, cp.Payoffs, obj)
					if err != nil || !ok {
						t.Fatal(err)
					}
					if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
						t.Fatalf("%s %v: multi-app %g vs core %g", at, obj, got.Objective, want.Objective)
					}
				}
			}
		}
	}
}

// allocDiff names the first cell where got and want differ in their
// bits, or returns "" when they are the same allocation.
func allocDiff(got, want *core.Allocation) string {
	if len(got.Alpha) != len(want.Alpha) || len(got.Beta) != len(want.Beta) {
		return fmt.Sprintf("shape %dx%d vs %dx%d", len(got.Alpha), len(got.Beta), len(want.Alpha), len(want.Beta))
	}
	for a, row := range want.Alpha {
		for l, w := range row {
			if g := got.Alpha[a][l]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("α_{%d,%d} %v vs %v", a, l, g, w)
			}
		}
	}
	for k, row := range want.Beta {
		for l, w := range row {
			if g := got.Beta[k][l]; g != w {
				return fmt.Sprintf("β_{%d,%d} %d vs %d", k, l, g, w)
			}
		}
	}
	return ""
}

func TestCheckAllocationViolations(t *testing.T) {
	pl := twoRouters(t)
	origins := []int{0, 0}
	mk := func() *core.Allocation {
		return &core.Allocation{
			Alpha: [][]float64{{0, 0}, {0, 0}},
			Beta:  [][]int{{0, 0}, {0, 0}},
		}
	}
	if err := checkApps(pl, origins, mk(), 1e-6); err != nil {
		t.Fatal(err)
	}
	t.Run("speed", func(t *testing.T) {
		a := mk()
		a.Alpha[0][0] = 70
		a.Alpha[1][0] = 70
		if err := checkApps(pl, origins, a, 1e-6); err == nil {
			t.Fatal("expected speed violation")
		}
	})
	t.Run("pooled bandwidth", func(t *testing.T) {
		a := mk()
		a.Alpha[0][1] = 8
		a.Alpha[1][1] = 8
		a.Beta[0][1] = 1 // 16 > 1*10
		if err := checkApps(pl, origins, a, 1e-6); err == nil {
			t.Fatal("expected pooled 7e violation")
		}
		a.Beta[0][1] = 2
		if err := checkApps(pl, origins, a, 1e-6); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("one app negative beside another", func(t *testing.T) {
		// Pooled by origin, α_{0,1} = −5 and α_{1,1} = +5 sum to 0 and
		// pass every platform row; only the per-application check sees
		// the negative load.
		a := mk()
		a.Alpha[0][1] = -5
		a.Alpha[1][1] = 5
		if err := checkApps(pl, origins, a, 1e-6); err == nil {
			t.Fatal("expected a negative α violation")
		}
	})
	t.Run("connections", func(t *testing.T) {
		a := mk()
		a.Beta[0][1] = 4
		if err := checkApps(pl, origins, a, 1e-6); err == nil {
			t.Fatal("expected 7d violation")
		}
	})
	t.Run("gateway", func(t *testing.T) {
		// Gateway 0 carries 60 > 50. On the 10-bandwidth link (7e) would
		// fail first at 60 > 30, so the link is widened to 100.
		a := mk()
		a.Alpha[0][1] = 30
		a.Alpha[1][1] = 30
		a.Beta[0][1] = 3
		pl2 := twoRouters(t)
		pl2.Links[0].BW = 100
		if err := pl2.ComputeRoutes(); err != nil {
			t.Fatal(err)
		}
		if err := checkApps(pl2, origins, a, 1e-6); err == nil {
			t.Fatal("expected gateway violation")
		}
	})
}

func TestGreedyMultiApp(t *testing.T) {
	// Three apps, two at cluster 0 (speed 0) with their workers behind
	// one route: greedy must share the pooled route among them fairly.
	pl := twoRouters(t)
	pl.Clusters[0].Speed = 0
	if err := pl.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	origins := []int{0, 0, 1}
	al := greedyApps(pl, origins, []float64{1, 1, 1})
	if err := checkApps(pl, origins, al, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Total shipped load is bounded by the route (30) and the
	// remote speed shared with app w.
	total := al.AppThroughput(0) + al.AppThroughput(1)
	if total > 30+1e-6 {
		t.Fatalf("apps at origin 0 shipped %g > route capacity 30", total)
	}
	if al.AppThroughput(2) <= 0 {
		t.Fatal("app at cluster 1 got nothing despite local speed")
	}
}

// TestPropertyGreedyValidAndBounded: the multi-app greedy always
// produces valid allocations bounded by the relaxation.
func TestPropertyGreedyValidAndBounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		params := platgen.Params{
			K:             2 + rng.Intn(5),
			Connectivity:  0.3 + 0.5*rng.Float64(),
			Heterogeneity: 0.4,
			MeanG:         50 + 200*rng.Float64(),
			MeanBW:        10 + 50*rng.Float64(),
			MeanMaxCon:    2 + 10*rng.Float64(),
		}
		pl, err := platgen.Generate(params, rng)
		if err != nil {
			return false
		}
		var origins []int
		var payoffs []float64
		for a := 1 + rng.Intn(2*pl.K()); a > 0; a-- {
			origins = append(origins, rng.Intn(pl.K()))
			payoffs = append(payoffs, 0.5+rng.Float64())
		}
		al := greedyApps(pl, origins, payoffs)
		if err := checkApps(pl, origins, al, 1e-6); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		rel, ok, err := core.RelaxedApps(pl, origins, payoffs, core.SUM)
		if err != nil || !ok {
			return false
		}
		return core.SUM.Value(payoffs, al) <= rel.Objective*(1+1e-6)+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMixedLANMultiApp runs §3.1's relaxation and greedy over a platform
// mixing a same-LAN cluster pair (an empty-path route, MinBW = +Inf) with
// a backbone route: no ±Inf may reach the LP layer, and the greedy's
// allocation is valid.
func TestMixedLANMultiApp(t *testing.T) {
	pl := &platform.Platform{
		Routers: 2,
		Links:   []platform.Link{{U: 0, V: 1, BW: 10, MaxConnect: 5}},
		Clusters: []platform.Cluster{
			{Name: "a", Speed: 100, Gateway: 50, Router: 0},
			{Name: "b", Speed: 80, Gateway: 40, Router: 0},
			{Name: "c", Speed: 60, Gateway: 30, Router: 1},
		},
	}
	if err := pl.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	origins, payoffs := []int{0, 1, 2}, []float64{1, 2, 1}
	if _, ok, err := core.RelaxedApps(pl, origins, payoffs, core.SUM); err != nil || !ok {
		t.Errorf("RelaxedApps: ok=%v err=%v", ok, err)
	}
	if err := checkApps(pl, origins, greedyApps(pl, origins, payoffs), core.DefaultTol); err != nil {
		t.Errorf("multi-app greedy allocation invalid: %v", err)
	}
}
