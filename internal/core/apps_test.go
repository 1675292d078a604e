package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/platgen"
)

// TestModelLinkBudgetBoundEncoding: with several applications per
// origin (§3.1, RelaxedApps), every backbone link budget — zero
// included — bounds the pooled connection-equivalents of the relaxed
// flows crossing it, a zero budget closes every route through its link,
// and squeezing budgets never raises the relaxed optimum.
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
		var origins []int
		var payoffs []float64
		for a := 0; a < K; a++ {
			origins = append(origins, rng.Intn(K))
			payoffs = append(payoffs, float64(1+rng.Intn(3)))
		}
		obj := []Objective{SUM, MAXMIN}[seed%2]
		nominal, ok, err := RelaxedApps(pl, origins, payoffs, obj)
		if err != nil || !ok {
			t.Fatalf("seed %d: ok=%v err=%v", seed, ok, err)
		}
		nomUse := linkUse(pl, origins, nominal.Alpha)
		for epoch := 0; epoch < 5; epoch++ {
			mod := pl.Clone()
			for li := range mod.Links {
				if rng.Float64() < 0.5 {
					mod.Links[li].MaxConnect = rng.Intn(pl.Links[li].MaxConnect + 1)
				}
			}
			sol, ok, err := RelaxedApps(mod, origins, payoffs, obj)
			if err != nil || !ok {
				t.Fatalf("seed %d epoch %d: ok=%v err=%v", seed, epoch, ok, err)
			}
			if sol.Objective > nominal.Objective+1e-9*(1+nominal.Objective) {
				t.Fatalf("seed %d epoch %d: squeezed optimum %.12g above nominal %.12g", seed, epoch, sol.Objective, nominal.Objective)
			}
			for li, u := range linkUse(mod, origins, sol.Alpha) {
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
func linkUse(pl *platform.Platform, origins []int, alpha [][]float64) []float64 {
	use := make([]float64, len(pl.Links))
	for a, k := range origins {
		for l, x := range alpha[a] {
			if l == k || x == 0 {
				continue
			}
			rt := pl.Route(k, l)
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
	pl := twoClusters(0, 100, 50, 50, 10, 3)
	rel, ok, err := RelaxedApps(pl, []int{0, 0}, []float64{1, 1}, MAXMIN)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(rel.Objective-15) > 1e-5 {
		t.Fatalf("MAXMIN = %g, want 15 (route capacity 30 split two ways)", rel.Objective)
	}
}

func TestObjectiveAndThroughput(t *testing.T) {
	// Two applications of origin 0: Value reads one α row per
	// application.
	payoffs := []float64{2, 1}
	al := &Allocation{
		Alpha: [][]float64{{10, 5}, {20, 0}},
		Beta:  [][]int{{0, 1}, {0, 0}},
	}
	if got := al.AppThroughput(0); got != 15 {
		t.Fatalf("throughput 0 = %g", got)
	}
	if got := SUM.Value(payoffs, al); got != 2*15+20 {
		t.Fatalf("SUM = %g", got)
	}
	if got := MAXMIN.Value(payoffs, al); got != 20 {
		t.Fatalf("MAXMIN = %g", got)
	}
}
