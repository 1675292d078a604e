package adapt

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/multiapp"
)

// perturbationModels returns both perturbation families sized for
// pr's platform, seeded off `seed` — each in a cluster-only variant
// and one that also modulates the backbone link budgets, so every
// warm-vs-cold property downstream covers link-budget injection.
func perturbationModels(pr *core.Problem, seed int64) []Model {
	k := pr.K()
	models := []Model{
		UniformLoadModel{K: k, Min: 0.3, Max: 1.0, Seed: seed},
		DiurnalModel{K: k, Min: 0.4, Max: 1.2, Period: 5},
	}
	if links := len(pr.Platform.Links); links > 0 {
		models = append(models,
			UniformLoadModel{K: k, Min: 0.3, Max: 1.0, Seed: seed,
				Links: links, LinkMin: 0.5, LinkMax: 1.0},
			DiurnalModel{K: k, Min: 0.4, Max: 1.2, Period: 5,
				Links: links, LinkMin: 0.6, LinkMax: 1.0})
	}
	return models
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// TestRunWarmBoundsMatchesColdRebuild is the warm-start soundness
// property at the relaxation level: across randomized platforms,
// both perturbation models and both objectives, the persistent
// warm-started model's per-epoch optimum equals a cold per-epoch
// rebuild's to 1e-9 (an LP's optimal value is unique, so the two
// paths must agree exactly up to solver tolerance).
func TestRunWarmBoundsMatchesColdRebuild(t *testing.T) {
	const epochs = 8
	for seed := int64(1); seed <= 4; seed++ {
		for _, k := range []int{4, 6} {
			pr := testProblem(seed, k)
			for _, model := range perturbationModels(pr, seed*7) {
				for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
					warm, err := RunWarmBounds(pr, model, obj, epochs)
					if err != nil {
						t.Fatalf("seed %d K %d %T %v: %v", seed, k, model, obj, err)
					}
					for e := 0; e < epochs; e++ {
						pert := model.Epoch(e)
						epl, err := pert.Apply(pr.Platform)
						if err != nil {
							t.Fatal(err)
						}
						epr := &core.Problem{Platform: epl, Payoffs: pr.Payoffs}
						cold, err := epr.NewModel(obj)
						if err != nil {
							t.Fatal(err)
						}
						sol, _, ok, err := cold.Solve(nil)
						if err != nil || !ok {
							t.Fatalf("cold solve: ok=%v err=%v", ok, err)
						}
						if !almostEqual(warm[e].Bound, sol.Objective) {
							t.Fatalf("seed %d K %d %T %v epoch %d: warm %.12g != cold %.12g",
								seed, k, model, obj, e, warm[e].Bound, sol.Objective)
						}
					}
				}
			}
		}
	}
}

// TestRunWarmBnBMatchesColdRun: with the exact solver on both sides,
// the warm epoch engine's adaptive objectives must match adapt.Run's
// cold per-epoch rebuild to 1e-9 — branch-and-bound proves the same
// optimum regardless of how its node relaxations warm-start.
func TestRunWarmBnBMatchesColdRun(t *testing.T) {
	const epochs = 6
	for seed := int64(1); seed <= 3; seed++ {
		k := 4
		pr := testProblem(seed, k)
		for _, model := range perturbationModels(pr, seed*13) {
			for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
				coldSolve := func(p *core.Problem) (*core.Allocation, error) {
					a, _, err := heuristics.BranchAndBound(p, obj, 0)
					return a, err
				}
				cold, err := Run(pr, coldSolve, model, obj, epochs)
				if err != nil {
					t.Fatalf("cold: %v", err)
				}
				warmSolve := func(m *core.Model, epr *core.Problem, o core.Objective, from *lp.Basis) (*core.Allocation, *lp.Basis, error) {
					a, _, basis, err := heuristics.BranchAndBoundOnModel(m, epr, o, 0, from, nil)
					return a, basis, err
				}
				warm, err := RunWarm(pr, warmSolve, model, obj, epochs)
				if err != nil {
					t.Fatalf("warm: %v", err)
				}
				// WarmBnB adds incumbent carry-over on top of basis
				// reuse; it must prove the same optima.
				seeded, err := RunWarm(pr, WarmBnB(0), model, obj, epochs)
				if err != nil {
					t.Fatalf("warm seeded: %v", err)
				}
				for e := range warm {
					if !almostEqual(warm[e].Adaptive, cold[e].Adaptive) {
						t.Fatalf("seed %d %T %v epoch %d: warm %.12g != cold %.12g",
							seed, model, obj, e, warm[e].Adaptive, cold[e].Adaptive)
					}
					if !almostEqual(seeded[e].Adaptive, cold[e].Adaptive) {
						t.Fatalf("seed %d %T %v epoch %d: seeded warm %.12g != cold %.12g",
							seed, model, obj, e, seeded[e].Adaptive, cold[e].Adaptive)
					}
				}
			}
		}
	}
}

// TestRunWarmMultiMatchesColdRebuild is the same uniqueness property
// for the multi-application relaxation on a persistent
// multiapp.Model.
func TestRunWarmMultiMatchesColdRebuild(t *testing.T) {
	const epochs = 8
	for seed := int64(1); seed <= 3; seed++ {
		k := 5
		pr := testProblem(seed, k)
		apps := []multiapp.App{
			{Name: "a0", Origin: 0, Payoff: 1},
			{Name: "a1", Origin: 0, Payoff: 2},
			{Name: "a2", Origin: 2, Payoff: 1},
			{Name: "a3", Origin: 4, Payoff: 3},
		}
		mpr := &multiapp.Problem{Platform: pr.Platform, Apps: apps}
		for _, model := range perturbationModels(pr, seed*11) {
			for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
				warm, err := RunWarmMulti(mpr, model, obj, epochs)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < epochs; e++ {
					pert := model.Epoch(e)
					epl, err := pert.Apply(mpr.Platform)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := (&multiapp.Problem{Platform: epl, Apps: apps}).Relaxed(obj)
					if err != nil {
						t.Fatal(err)
					}
					if !almostEqual(warm[e].Bound, cold.Objective) {
						t.Fatalf("seed %d %T %v epoch %d: warm %.12g != cold %.12g",
							seed, model, obj, e, warm[e].Bound, cold.Objective)
					}
				}
			}
		}
	}
}

// TestRunWarmLPRRIsValid drives the warm epoch engine with the
// randomized-rounding heuristic: every epoch's allocation must be
// feasible on that epoch's platform. (LPRR's decisions depend on
// which optimal vertex the relaxation lands on, so warm and cold
// runs are not comparable value-for-value; feasibility is the
// contract.)
func TestRunWarmLPRRIsValid(t *testing.T) {
	pr := testProblem(2, 6)
	model := UniformLoadModel{K: 6, Min: 0.4, Max: 1.0, Seed: 17}
	rng := rand.New(rand.NewSource(5))
	results, err := RunWarm(pr, WarmLPRR(heuristics.ProportionalRounding, rng), model, core.MAXMIN, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d epochs", len(results))
	}
	s := Summarize(results)
	if s.MeanAdaptive <= 0 {
		t.Fatal("adaptive mean should be positive")
	}
}

// TestRunWarmLPRGBeatsStatic mirrors TestRunAdaptiveBeatsStatic on
// the warm path.
func TestRunWarmLPRGBeatsStatic(t *testing.T) {
	pr := testProblem(3, 8)
	model := UniformLoadModel{K: 8, Min: 0.3, Max: 0.9, Seed: 4}
	results, err := RunWarm(pr, heuristics.LPRGOnModel, model, core.MAXMIN, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(results)
	if s.MeanAdaptive <= 0 {
		t.Fatal("adaptive mean should be positive")
	}
	if s.MeanAdaptive < s.MeanStatic-1e-9 {
		t.Fatalf("adaptive %g below static %g", s.MeanAdaptive, s.MeanStatic)
	}
}

// The same-LAN (empty-path, infinite-bandwidth) regression scenario
// for the epoch engine lives in the root package's mixedlan_test.go
// (TestMixedLANAdaptEpochs), next to the full-stack coverage of that
// platform shape.

// TestThrottlePropertyRandomPerturbations: under randomized capacity
// perturbations — gateways, speeds and link budgets — Throttle's
// output is always a valid allocation for the perturbed platform
// (over-budget links shed whole connections, the freed α collapses
// onto the surviving β·bw).
func TestThrottlePropertyRandomPerturbations(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pr := testProblem(seed, 6)
		alloc, err := lprgSolver(pr)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 20; trial++ {
			g := make([]float64, pr.K())
			s := make([]float64, pr.K())
			for i := range g {
				g[i] = 0.05 + 1.45*rng.Float64()
				s[i] = 0.05 + 1.45*rng.Float64()
			}
			pert := Perturbation{GatewayFactor: g, SpeedFactor: s}
			if trial%2 == 1 {
				lf := make([]float64, len(pr.Platform.Links))
				for i := range lf {
					lf[i] = 0.05 + 1.45*rng.Float64()
				}
				pert.LinkFactor = lf
			}
			epl, err := pert.Apply(pr.Platform)
			if err != nil {
				t.Fatal(err)
			}
			epr := &core.Problem{Platform: epl, Payoffs: pr.Payoffs}
			th := Throttle(epr, alloc)
			if err := epr.CheckAllocation(th, core.DefaultTol); err != nil {
				t.Fatalf("seed %d trial %d: throttled allocation invalid: %v", seed, trial, err)
			}
		}
	}
}

// TestDiurnalModelValidation: a non-positive period is rejected up
// front by Run/RunWarm (satellite: previously it flowed NaN speed
// factors into Perturbation.Apply, failing with a confusing error).
func TestDiurnalModelValidation(t *testing.T) {
	pr := testProblem(1, 4)
	bad := DiurnalModel{K: 4, Min: 0.5, Max: 1.0, Period: 0}
	if _, err := Run(pr, lprgSolver, bad, core.SUM, 2); err == nil || !strings.Contains(err.Error(), "Period") {
		t.Fatalf("Run with Period=0 must fail mentioning Period, got %v", err)
	}
	if _, err := RunWarm(pr, heuristics.LPRGOnModel, bad, core.SUM, 2); err == nil || !strings.Contains(err.Error(), "Period") {
		t.Fatalf("RunWarm with Period=0 must fail mentioning Period, got %v", err)
	}
	if _, err := RunWarmBounds(pr, bad, core.SUM, 2); err == nil || !strings.Contains(err.Error(), "Period") {
		t.Fatalf("RunWarmBounds with Period=0 must fail mentioning Period, got %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Epoch with Period=0 must panic")
		}
	}()
	bad.Epoch(0)
}

// TestUniformLoadModelValidation covers the companion Validate.
func TestUniformLoadModelValidation(t *testing.T) {
	cases := []UniformLoadModel{
		{K: 0, Min: 0.5, Max: 1},
		{K: 3, Min: 0, Max: 1},
		{K: 3, Min: 0.5, Max: 0.4},
		{K: 3, Min: 0.5, Max: math.Inf(1)},
		{K: 3, Min: 0.5, Max: 1, Links: 2, LinkMin: 0, LinkMax: 1},
		{K: 3, Min: 0.5, Max: 1, Links: 2, LinkMin: 0.8, LinkMax: 0.5},
		{K: 3, Min: 0.5, Max: 1, Links: -1, LinkMin: 0.5, LinkMax: 1},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d must fail validation", i)
		}
	}
	if err := (UniformLoadModel{K: 3, Min: 0.5, Max: 1}).Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if err := (UniformLoadModel{K: 3, Min: 0.5, Max: 1, Links: 4, LinkMin: 0.5, LinkMax: 1}).Validate(); err != nil {
		t.Fatalf("valid link-modulating model rejected: %v", err)
	}
	if err := (DiurnalModel{K: 3, Min: 0.5, Max: 1, Period: 4, Links: 2, LinkMin: 0, LinkMax: 0.5}).Validate(); err == nil {
		t.Fatal("DiurnalModel with LinkMin=0 must fail validation")
	}
}

// TestPerturbationLinkFactors: Apply floors scaled budgets back to
// whole connection counts and rejects malformed factor vectors.
func TestPerturbationLinkFactors(t *testing.T) {
	pr := testProblem(9, 4)
	nl := len(pr.Platform.Links)
	if nl == 0 {
		t.Fatal("test platform has no links")
	}
	lf := make([]float64, nl)
	for i := range lf {
		lf[i] = 0.5
	}
	epl, err := Perturbation{LinkFactor: lf}.Apply(pr.Platform)
	if err != nil {
		t.Fatal(err)
	}
	for li := range epl.Links {
		want := int(math.Floor(0.5 * float64(pr.Platform.Links[li].MaxConnect)))
		if got := epl.Links[li].MaxConnect; got != want {
			t.Fatalf("link %d: budget %d, want floor(0.5·%d) = %d", li, got, pr.Platform.Links[li].MaxConnect, want)
		}
	}
	// A factor of exactly 1 keeps the budget bit-for-bit.
	for i := range lf {
		lf[i] = 1
	}
	same, err := Perturbation{LinkFactor: lf}.Apply(pr.Platform)
	if err != nil {
		t.Fatal(err)
	}
	for li := range same.Links {
		if same.Links[li].MaxConnect != pr.Platform.Links[li].MaxConnect {
			t.Fatalf("link %d: unit factor changed budget %d -> %d", li, pr.Platform.Links[li].MaxConnect, same.Links[li].MaxConnect)
		}
	}
	if _, err := (Perturbation{LinkFactor: lf[:1]}).Apply(pr.Platform); nl > 1 && err == nil {
		t.Fatal("short LinkFactor vector must fail")
	}
	lf[0] = 0
	if _, err := (Perturbation{LinkFactor: lf}).Apply(pr.Platform); err == nil {
		t.Fatal("zero link factor must fail")
	}
}
