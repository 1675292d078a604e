package multiapp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/platgen"
)

func twoClusters() *platform.Platform {
	p := &platform.Platform{
		Routers: 2,
		Links:   []platform.Link{{U: 0, V: 1, BW: 10, MaxConnect: 3}},
		Clusters: []platform.Cluster{
			{Name: "a", Speed: 100, Gateway: 50, Router: 0},
			{Name: "b", Speed: 100, Gateway: 50, Router: 1},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		panic(err)
	}
	return p
}

func TestValidate(t *testing.T) {
	pl := twoClusters()
	good := &Problem{Platform: pl, Apps: []App{{Name: "x", Origin: 0, Payoff: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		{Platform: nil, Apps: []App{{Origin: 0, Payoff: 1}}},
		{Platform: pl},
		{Platform: pl, Apps: []App{{Origin: 9, Payoff: 1}}},
		{Platform: pl, Apps: []App{{Origin: 0, Payoff: -1}}},
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Fatalf("case %d must fail", i)
		}
	}
}

func TestSingleAppPerClusterMatchesCore(t *testing.T) {
	// With exactly one app per cluster the multi-app relaxation is the
	// core relaxation — one program, so the objective and every α and β
	// agree bit for bit — and the multi-app greedy is heuristics.Greedy,
	// one §5.1 loop, so every α and β of theirs agree bit for bit too:
	// on the generated platform, and with its link budgets scaled into
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
				mp := &Problem{Platform: p}
				for k := 0; k < p.K(); k++ {
					if zeroed {
						cp.Payoffs[k] = float64((k + int(seed)) % 3)
					}
					mp.Apps = append(mp.Apps, App{Origin: k, Payoff: cp.Payoffs[k]})
				}
				at := fmt.Sprintf("seed %d (squeezed %v, zeroed %v)", seed, p == squeezed, zeroed)
				mg, err := mp.Greedy()
				if err != nil {
					t.Fatal(err)
				}
				if d := allocDiff(mg, heuristics.Greedy(cp)); d != "" {
					t.Fatalf("%s: greedy %s", at, d)
				}
				for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
					want, ok, err := cp.Relaxed(obj)
					if err != nil || !ok {
						t.Fatal(err)
					}
					got, err := mp.Relaxed(obj)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
						t.Fatalf("%s %v: multiapp %g vs core %g", at, obj, got.Objective, want.Objective)
					}
					for _, tab := range [][2][][]float64{{got.Alpha, want.Alpha}, {got.Beta, want.Beta}} {
						for k := range tab[1] {
							for l, w := range tab[1][k] {
								if g := tab[0][k][l]; math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("%s %v: cell (%d,%d) multiapp %v vs core %v", at, obj, k, l, g, w)
								}
							}
						}
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

// TestModelLinkBudgetBoundEncoding: with several applications per
// origin, every backbone link budget — zero included — bounds the
// pooled connection-equivalents of the relaxed flows crossing it, a
// zero budget closes every route through its link, and squeezing
// budgets never raises the relaxed optimum.
func TestModelLinkBudgetBoundEncoding(t *testing.T) {
	closedUsed := 0 // zeroed links that carried flow at nominal
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		params := platgen.Params{K: 3 + rng.Intn(4), Connectivity: 0.6, Heterogeneity: 0.4, MeanG: 150, MeanBW: 20, MeanMaxCon: 5}
		pl, err := platgen.Generate(params, rng)
		if err != nil {
			t.Fatal(err)
		}
		K := pl.K()
		var apps []App
		for a := 0; a < K; a++ {
			apps = append(apps, App{Name: "a", Origin: rng.Intn(K), Payoff: float64(1 + rng.Intn(3))})
		}
		obj := []core.Objective{core.SUM, core.MAXMIN}[seed%2]
		nominal, err := (&Problem{Platform: pl, Apps: apps}).Relaxed(obj)
		if err != nil {
			t.Fatal(err)
		}
		nomUse := linkUse(pl, apps, nominal.Alpha)
		for epoch := 0; epoch < 5; epoch++ {
			mod := pl.Clone()
			for li := range mod.Links {
				if rng.Float64() < 0.5 {
					mod.Links[li].MaxConnect = rng.Intn(pl.Links[li].MaxConnect + 1)
				}
			}
			sol, err := (&Problem{Platform: mod, Apps: apps}).Relaxed(obj)
			if err != nil {
				t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
			}
			if sol.Objective > nominal.Objective+1e-9*(1+nominal.Objective) {
				t.Fatalf("seed %d epoch %d: squeezed optimum %.12g above nominal %.12g", seed, epoch, sol.Objective, nominal.Objective)
			}
			for li, u := range linkUse(mod, apps, sol.Alpha) {
				budget := float64(mod.Links[li].MaxConnect)
				if u > budget+1e-9*(1+budget) {
					t.Fatalf("seed %d epoch %d: link %d carries %.12g connection-equivalents, budget %g", seed, epoch, li, u, budget)
				}
				if budget == 0 && nomUse[li] > 1e-9 {
					closedUsed++
				}
			}
		}
	}
	if closedUsed == 0 {
		t.Fatal("no zeroed link ever carried flow at nominal; zero-budget path untested")
	}
}

// linkUse returns, per backbone link, Σ over the routes crossing it of
// the pooled route flow divided by the route's bottleneck bandwidth.
func linkUse(pl *platform.Platform, apps []App, alpha [][]float64) []float64 {
	use := make([]float64, len(pl.Links))
	for a, app := range apps {
		for l, x := range alpha[a] {
			if l == app.Origin || x == 0 {
				continue
			}
			rt := pl.Route(app.Origin, l)
			if math.IsInf(rt.MinBW, 1) {
				continue
			}
			for _, li := range rt.Links {
				use[li] += x / rt.MinBW
			}
		}
	}
	return use
}

func TestTwoAppsShareOriginGateway(t *testing.T) {
	// Two apps at cluster 0, speed 0 there: both must ship through
	// the single gateway/route; their total is capped by the route
	// (3 conns x bw 10 = 30), shared fairly under MAXMIN.
	pl := twoClusters()
	pl.Clusters[0].Speed = 0
	if err := pl.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	pr := &Problem{Platform: pl, Apps: []App{
		{Name: "u", Origin: 0, Payoff: 1},
		{Name: "v", Origin: 0, Payoff: 1},
	}}
	rel, err := pr.Relaxed(core.MAXMIN)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel.Objective-15) > 1e-5 {
		t.Fatalf("MAXMIN = %g, want 15 (route capacity 30 split two ways)", rel.Objective)
	}
}

func TestObjectiveAndThroughput(t *testing.T) {
	pl := twoClusters()
	pr := &Problem{Platform: pl, Apps: []App{
		{Origin: 0, Payoff: 2},
		{Origin: 0, Payoff: 1},
	}}
	al := &core.Allocation{
		Alpha: [][]float64{{10, 5}, {20, 0}},
		Beta:  [][]int{{0, 1}, {0, 0}},
	}
	if got := al.AppThroughput(0); got != 15 {
		t.Fatalf("throughput 0 = %g", got)
	}
	if got := pr.Objective(core.SUM, al); got != 2*15+20 {
		t.Fatalf("SUM = %g", got)
	}
	if got := pr.Objective(core.MAXMIN, al); got != 20 {
		t.Fatalf("MAXMIN = %g", got)
	}
}

func TestCheckAllocationViolations(t *testing.T) {
	pl := twoClusters()
	pr := &Problem{Platform: pl, Apps: []App{
		{Origin: 0, Payoff: 1},
		{Origin: 0, Payoff: 1},
	}}
	mk := func() *core.Allocation {
		return &core.Allocation{
			Alpha: [][]float64{{0, 0}, {0, 0}},
			Beta:  [][]int{{0, 0}, {0, 0}},
		}
	}
	ok := mk()
	if err := pr.CheckAllocation(ok, 1e-6); err != nil {
		t.Fatal(err)
	}
	t.Run("speed", func(t *testing.T) {
		a := mk()
		a.Alpha[0][0] = 70
		a.Alpha[1][0] = 70
		if err := pr.CheckAllocation(a, 1e-6); err == nil {
			t.Fatal("expected speed violation")
		}
	})
	t.Run("pooled bandwidth", func(t *testing.T) {
		a := mk()
		a.Alpha[0][1] = 8
		a.Alpha[1][1] = 8
		a.Beta[0][1] = 1 // 16 > 1*10
		if err := pr.CheckAllocation(a, 1e-6); err == nil {
			t.Fatal("expected pooled 7e violation")
		}
		a.Beta[0][1] = 2
		if err := pr.CheckAllocation(a, 1e-6); err != nil {
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
		if err := pr.CheckAllocation(a, 1e-6); err == nil {
			t.Fatal("expected a negative α violation")
		}
	})
	t.Run("connections", func(t *testing.T) {
		a := mk()
		a.Beta[0][1] = 4
		if err := pr.CheckAllocation(a, 1e-6); err == nil {
			t.Fatal("expected 7d violation")
		}
	})
	t.Run("gateway", func(t *testing.T) {
		a := mk()
		a.Alpha[0][1] = 30
		a.Alpha[1][1] = 30
		a.Beta[0][1] = 3 // within route cap 30? 60 > 30 — raise bw via beta not possible; use local+remote mix
		// gateway 0 carries 60 > 50 regardless of 7e; but 7e fails
		// first at 60 > 30. Use a platform with bigger route capacity.
		pl2 := twoClusters()
		pl2.Links[0].BW = 100
		if err := pl2.ComputeRoutes(); err != nil {
			t.Fatal(err)
		}
		pr2 := &Problem{Platform: pl2, Apps: pr.Apps}
		if err := pr2.CheckAllocation(a, 1e-6); err == nil {
			t.Fatal("expected gateway violation")
		}
	})
}

func TestGreedyMultiApp(t *testing.T) {
	// Three apps at cluster 0 (speed 0), workers behind one route:
	// greedy must share the pooled route among them fairly.
	pl := twoClusters()
	pl.Clusters[0].Speed = 0
	if err := pl.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	pr := &Problem{Platform: pl, Apps: []App{
		{Name: "u", Origin: 0, Payoff: 1},
		{Name: "v", Origin: 0, Payoff: 1},
		{Name: "w", Origin: 1, Payoff: 1},
	}}
	al, err := pr.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.CheckAllocation(al, 1e-6); err != nil {
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
		pr := &Problem{Platform: pl}
		nApps := 1 + rng.Intn(2*pl.K())
		for a := 0; a < nApps; a++ {
			pr.Apps = append(pr.Apps, App{
				Origin: rng.Intn(pl.K()),
				Payoff: 0.5 + rng.Float64(),
			})
		}
		al, err := pr.Greedy()
		if err != nil {
			return false
		}
		if err := pr.CheckAllocation(al, 1e-6); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		rel, err := pr.Relaxed(core.SUM)
		if err != nil {
			return false
		}
		return pr.Objective(core.SUM, al) <= rel.Objective*(1+1e-6)+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMultiAppRelaxed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	params := platgen.Params{K: 10, Connectivity: 0.4, Heterogeneity: 0.4, MeanG: 150, MeanBW: 40, MeanMaxCon: 8}
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		b.Fatal(err)
	}
	pr := &Problem{Platform: pl}
	for a := 0; a < 20; a++ {
		pr.Apps = append(pr.Apps, App{Origin: a % 10, Payoff: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Relaxed(core.MAXMIN); err != nil {
			b.Fatal(err)
		}
	}
}
