package adapt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/platgen"
)

func testProblem(seed int64, k int) *core.Problem {
	rng := rand.New(rand.NewSource(seed))
	params := platgen.Params{
		K:             k,
		Connectivity:  0.5,
		Heterogeneity: 0.4,
		MeanG:         120,
		MeanBW:        30,
		MeanMaxCon:    6,
	}
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		panic(err)
	}
	return core.NewProblem(pl)
}

func lprgSolver(pr *core.Problem) (*core.Allocation, error) {
	return lprg(pr, core.MAXMIN)
}

// lprg is LPRG from cold: pr's relaxation solved afresh, then rounded.
func lprg(pr *core.Problem, obj core.Objective) (*core.Allocation, error) {
	rel, err := heuristics.Relax(pr, obj)
	if err != nil {
		return nil, err
	}
	return heuristics.LPRG(pr, rel.RelaxedSolution), nil
}

func TestPerturbationApply(t *testing.T) {
	pr := testProblem(1, 4)
	pert := Perturbation{
		GatewayFactor: []float64{0.5, 1, 1, 1},
		SpeedFactor:   []float64{1, 2, 1, 1},
	}
	pl2, err := pert.Apply(pr.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Clusters[0].Gateway != pr.Platform.Clusters[0].Gateway*0.5 {
		t.Fatal("gateway not scaled")
	}
	if pl2.Clusters[1].Speed != pr.Platform.Clusters[1].Speed*2 {
		t.Fatal("speed not scaled")
	}
	// Original untouched.
	if pr.Platform.Clusters[0].Gateway == pl2.Clusters[0].Gateway {
		t.Fatal("original platform mutated")
	}
}

func TestPerturbationApplyErrors(t *testing.T) {
	pr := testProblem(1, 4)
	cases := []Perturbation{
		{GatewayFactor: []float64{1}},
		{GatewayFactor: []float64{0, 1, 1, 1}},
		{SpeedFactor: []float64{1, 1, 1, math.NaN()}},
		{SpeedFactor: []float64{1, 1}},
	}
	for i, p := range cases {
		if _, err := p.Apply(pr.Platform); err == nil {
			t.Fatalf("case %d must fail", i)
		}
	}
	// A factor that takes a budget past the int range is refused as the
	// value it is: converting it first is implementation-defined.
	huge := Perturbation{LinkFactor: make([]float64, len(pr.Platform.Links))}
	for li := range huge.LinkFactor {
		huge.LinkFactor[li] = 1e300
	}
	if _, err := huge.Apply(pr.Platform); err == nil || !strings.Contains(err.Error(), "above the ceiling 2147483647") {
		t.Fatalf("link factor 1e300: err %v, want a refusal naming the ceiling", err)
	}
}

func TestUniformLoadModelDeterministic(t *testing.T) {
	m := UniformLoadModel{K: 5, Min: 0.3, Max: 1.0, Seed: 9}
	a := m.Epoch(3)
	b := m.Epoch(3)
	for k := 0; k < 5; k++ {
		if a.GatewayFactor[k] != b.GatewayFactor[k] {
			t.Fatal("model not deterministic per epoch")
		}
		if a.GatewayFactor[k] < 0.3 || a.GatewayFactor[k] > 1.0 {
			t.Fatalf("factor %g out of range", a.GatewayFactor[k])
		}
	}
	c := m.Epoch(4)
	same := true
	for k := 0; k < 5; k++ {
		if a.GatewayFactor[k] != c.GatewayFactor[k] {
			same = false
		}
	}
	if same {
		t.Fatal("different epochs should differ")
	}
}

func TestDiurnalModelCycle(t *testing.T) {
	m := DiurnalModel{K: 2, Min: 0.5, Max: 1.5, Period: 8}
	for e := 0; e < 16; e++ {
		p := m.Epoch(e)
		for _, f := range p.SpeedFactor {
			if f < 0.5-1e-12 || f > 1.5+1e-12 {
				t.Fatalf("epoch %d factor %g out of [0.5,1.5]", e, f)
			}
		}
	}
	// One full period later the factor repeats.
	a := m.Epoch(2).SpeedFactor[0]
	b := m.Epoch(10).SpeedFactor[0]
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("diurnal model not periodic: %g vs %g", a, b)
	}
}

func TestThrottleProducesValidAllocation(t *testing.T) {
	pr := testProblem(2, 6)
	alloc, err := lprgSolver(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Halve every gateway and speed: the throttled allocation must be
	// valid on the degraded platform.
	pert := Perturbation{
		GatewayFactor: uniform(6, 0.5),
		SpeedFactor:   uniform(6, 0.5),
	}
	pl2, err := pert.Apply(pr.Platform)
	if err != nil {
		t.Fatal(err)
	}
	pr2 := &core.Problem{Platform: pl2, Payoffs: pr.Payoffs}
	th := Throttle(pr2, alloc)
	if err := pr2.CheckAllocation(th, 1e-6); err != nil {
		t.Fatalf("throttled allocation invalid: %v", err)
	}
	// Throttling never increases anyone's throughput.
	for k := 0; k < pr.K(); k++ {
		if th.AppThroughput(k) > alloc.AppThroughput(k)+1e-9 {
			t.Fatalf("throttle increased app %d", k)
		}
	}
}

func uniform(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestThrottleOnUnchangedPlatformIsIdentity(t *testing.T) {
	pr := testProblem(7, 5)
	alloc, err := lprgSolver(pr)
	if err != nil {
		t.Fatal(err)
	}
	th := Throttle(pr, alloc)
	for k := 0; k < pr.K(); k++ {
		for l := 0; l < pr.K(); l++ {
			if math.Abs(th.Alpha[k][l]-alloc.Alpha[k][l]) > 1e-6*(1+alloc.Alpha[k][l]) {
				t.Fatalf("throttle changed α[%d][%d] on an unchanged platform", k, l)
			}
		}
	}
}

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

// TestDiurnalModelValidation: Epoch panics on a non-positive period,
// which would otherwise flow NaN speed factors into Perturbation.Apply
// and fail there with a confusing error.
func TestDiurnalModelValidation(t *testing.T) {
	bad := DiurnalModel{K: 4, Min: 0.5, Max: 1.0, Period: 0}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Period") {
			t.Fatalf("Epoch with Period=0 must panic mentioning Period, got %v", r)
		}
	}()
	bad.Epoch(0)
}

// tightProblem is the network-bound platform the re-optimizing loop is
// measured on (examples/adaptive runs the same one): tight connection
// budgets and bandwidths, payoffs 1, 2, 3, 1, … . On a compute-bound
// platform a squeezed gateway rarely binds, and re-optimizing gains
// nothing measurable.
func tightProblem(t testing.TB) *core.Problem {
	t.Helper()
	params := platgen.Params{K: 8, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5}
	pl, err := platgen.Generate(params, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	pr := core.NewProblem(pl)
	for k := range pr.Payoffs {
		pr.Payoffs[k] = float64(1 + k%3)
	}
	return pr
}

// tightLoad squeezes tightProblem's gateways to 30–100 % and its link
// budgets to 50–100 % of nominal, independently each epoch.
func tightLoad(pr *core.Problem) UniformLoadModel {
	return UniformLoadModel{K: pr.K(), Min: 0.3, Max: 1.0, Seed: 99,
		Links: len(pr.Platform.Links), LinkMin: 0.5, LinkMax: 1.0}
}

// epochSolver re-solves one epoch's problem; m already holds that
// epoch's capacities and from is the previous epoch's basis.
type epochSolver func(m *core.Model, epr *core.Problem, from *lp.Basis) (*core.Allocation, *lp.Basis, error)

// warmLPRG is LPRG on the model, its relaxation solved warm from the
// previous epoch's basis, as a session's commit runs it.
func warmLPRG(m *core.Model, epr *core.Problem, from *lp.Basis) (*core.Allocation, *lp.Basis, error) {
	return warmRun(heuristics.NameLPRG, m, epr, from, nil)
}

// warmRun runs heuristic name from the model's relaxation solved warm
// from `from`, returning the allocation and the relaxation's root basis.
func warmRun(name heuristics.Name, m *core.Model, epr *core.Problem, from *lp.Basis, rng *rand.Rand) (*core.Allocation, *lp.Basis, error) {
	rel, err := heuristics.RelaxOn(m, from)
	if err != nil {
		return nil, nil, err
	}
	res, err := heuristics.Run(name, epr, rel, rng, 0)
	return res.Alloc, rel.Root, err
}

// coldLPRG ignores the basis: a fresh LPRG per epoch, under the
// model's objective.
func coldLPRG(m *core.Model, epr *core.Problem, _ *lp.Basis) (*core.Allocation, *lp.Basis, error) {
	a, err := lprg(epr, m.Objective())
	return a, nil, err
}

// reoptimizingGain is the §1 loop measured over 12 epochs. One
// core.Model serves every epoch: the epoch's perturbed platform is
// injected into it and solve re-solves from the previous basis. The
// static baseline is the nominal LPRG allocation, throttled to the same
// platform. Every re-optimized allocation must be valid on its epoch's
// platform. It returns the mean gain of re-optimizing over the
// throttled static allocation.
func reoptimizingGain(t *testing.T, pr *core.Problem, load Model, obj core.Objective, solve epochSolver) float64 {
	t.Helper()
	const epochs = 12
	m, err := pr.NewModel(obj)
	if err != nil {
		t.Fatal(err)
	}
	static, basis, err := warmLPRG(m, pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var adaptive, throttled float64
	for e := 0; e < epochs; e++ {
		epl, err := load.Epoch(e).Apply(pr.Platform)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Inject(epl); err != nil {
			t.Fatal(err)
		}
		epr := &core.Problem{Platform: epl, Payoffs: pr.Payoffs}
		alloc, next, err := solve(m, epr, basis)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if err := epr.CheckAllocation(alloc, core.DefaultTol); err != nil {
			t.Fatalf("epoch %d: re-optimized allocation invalid on its platform: %v", e, err)
		}
		basis = next
		adaptive += epr.Objective(obj, alloc)
		throttled += epr.Objective(obj, Throttle(epr, static))
	}
	gain := adaptive/throttled - 1
	t.Logf("mean %v over %d epochs: re-optimized %.3f, throttled static %.3f (gain %+.1f%%)", obj, epochs, adaptive/epochs, throttled/epochs, 100*gain)
	return gain
}

// TestReoptimizingBeatsThrottledStatic is the §1 argument measured with
// LPRG warm from the previous basis: the mean SUM gain must be at least
// 5 % (17.3 % when written). A loop that skipped Inject would round a
// relaxation sized for the nominal capacities, whose connection counts
// the squeezed link budgets reject.
func TestReoptimizingBeatsThrottledStatic(t *testing.T) {
	pr := tightProblem(t)
	if gain := reoptimizingGain(t, pr, tightLoad(pr), core.SUM, warmLPRG); gain < 0.05 {
		t.Fatalf("re-optimizing gained %.2f%% over the throttled static allocation, want >= 5%%", 100*gain)
	}
}

// TestRunAdaptiveBeatsStatic: a cold LPRG per epoch, on each epoch's
// own problem, gains as much over the throttled static allocation —
// the warm model is a speed-up, not the source of the gain.
func TestRunAdaptiveBeatsStatic(t *testing.T) {
	pr := tightProblem(t)
	if gain := reoptimizingGain(t, pr, tightLoad(pr), core.SUM, coldLPRG); gain < 0.05 {
		t.Fatalf("cold re-optimizing gained %.2f%% over the throttled static allocation, want >= 5%%", 100*gain)
	}
}

// TestRunWarmLPRGBeatsStatic: warm LPRG under MAXMIN also beats the
// throttled static allocation on the network-bound platform (+9.1 %
// when written).
func TestRunWarmLPRGBeatsStatic(t *testing.T) {
	pr := tightProblem(t)
	if gain := reoptimizingGain(t, pr, tightLoad(pr), core.MAXMIN, warmLPRG); gain < 0.05 {
		t.Fatalf("re-optimizing gained %.2f%% MAXMIN over the throttled static allocation, want >= 5%%", 100*gain)
	}
}

// TestRunWithDiurnalSpeeds: under the diurnal model — every speed and
// link budget following one sinusoid — re-optimizing still beats the
// throttled static allocation (+11.6 % SUM when written).
func TestRunWithDiurnalSpeeds(t *testing.T) {
	pr := tightProblem(t)
	load := DiurnalModel{K: pr.K(), Min: 0.4, Max: 1.2, Period: 5,
		Links: len(pr.Platform.Links), LinkMin: 0.5, LinkMax: 1.0}
	if gain := reoptimizingGain(t, pr, load, core.SUM, warmLPRG); gain < 0.05 {
		t.Fatalf("re-optimizing gained %.2f%% over the throttled static allocation under diurnal speeds, want >= 5%%", 100*gain)
	}
}

// perturbationModels returns both perturbation families sized for pr's
// platform, seeded off seed — each in a cluster-only variant and one
// that also modulates the backbone link budgets.
func perturbationModels(pr *core.Problem, seed int64) []Model {
	k, links := pr.K(), len(pr.Platform.Links)
	models := []Model{
		UniformLoadModel{K: k, Min: 0.3, Max: 1.0, Seed: seed},
		DiurnalModel{K: k, Min: 0.4, Max: 1.2, Period: 5},
	}
	if links > 0 {
		models = append(models,
			UniformLoadModel{K: k, Min: 0.3, Max: 1.0, Seed: seed, Links: links, LinkMin: 0.5, LinkMax: 1.0},
			DiurnalModel{K: k, Min: 0.4, Max: 1.2, Period: 5, Links: links, LinkMin: 0.6, LinkMax: 1.0})
	}
	return models
}

// injectEpochs runs load for n epochs against one model built for pr
// under obj, injecting each epoch's platform, and calls check with the
// model and that epoch's problem.
func injectEpochs(t *testing.T, pr *core.Problem, load Model, obj core.Objective, n int, check func(e int, m *core.Model, epr *core.Problem)) {
	t.Helper()
	m, err := pr.NewModel(obj)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < n; e++ {
		epl, err := load.Epoch(e).Apply(pr.Platform)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Inject(epl); err != nil {
			t.Fatal(err)
		}
		check(e, m, &core.Problem{Platform: epl, Payoffs: pr.Payoffs})
	}
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// TestRunWarmBoundsMatchesColdRebuild: across randomized platforms,
// both perturbation families with and without link modulation, and both
// objectives, the relaxation of one model that each epoch's platform is
// injected into, warm from the previous basis, equals a cold rebuild on
// that epoch's platform to 1e-9 (an LP's optimal value is unique).
func TestRunWarmBoundsMatchesColdRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, k := range []int{4, 6} {
			pr := testProblem(seed, k)
			for _, load := range perturbationModels(pr, seed*7) {
				for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
					var basis *lp.Basis
					injectEpochs(t, pr, load, obj, 8, func(e int, m *core.Model, epr *core.Problem) {
						warm, ok, err := m.Solve(basis)
						if err != nil || !ok {
							t.Fatalf("warm solve: ok=%v err=%v", ok, err)
						}
						basis = m.Basis()
						cold, err := heuristics.Relax(epr, obj)
						if err != nil {
							t.Fatalf("cold solve: %v", err)
						}
						if !almostEqual(warm, cold.Objective) {
							t.Fatalf("seed %d K %d %T %v epoch %d: warm %.12g != cold %.12g",
								seed, k, load, obj, e, warm, cold.Objective)
						}
					})
				}
			}
		}
	}
}

// TestRunWarmBnBMatchesColdRun: branch-and-bound on the injected model,
// warm from the previous epoch's root basis, proves the same optimum as
// a cold branch-and-bound on each epoch's problem, to 1e-9.
func TestRunWarmBnBMatchesColdRun(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pr := testProblem(seed, 4)
		for _, load := range perturbationModels(pr, seed*13) {
			for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
				var basis *lp.Basis
				injectEpochs(t, pr, load, obj, 6, func(e int, m *core.Model, epr *core.Problem) {
					warm, next, err := warmRun(heuristics.NameBnB, m, epr, basis, nil)
					if err != nil {
						t.Fatalf("warm: %v", err)
					}
					basis = next
					rel, err := heuristics.Relax(epr, obj)
					if err != nil {
						t.Fatalf("cold: %v", err)
					}
					cold, err := heuristics.Run(heuristics.NameBnB, epr, rel, nil, 0)
					if err != nil {
						t.Fatalf("cold: %v", err)
					}
					if w, c := epr.Objective(obj, warm), cold.Value; !almostEqual(w, c) {
						t.Fatalf("seed %d %T %v epoch %d: warm %.12g != cold %.12g", seed, load, obj, e, w, c)
					}
				})
			}
		}
	}
}

// TestRunWarmLPRRIsValid drives the injected model with the randomized
// rounding heuristic: every epoch's allocation must be feasible on that
// epoch's platform, with a positive objective. (LPRR's decisions depend
// on which optimal vertex the relaxation lands on, so warm and cold runs
// are not comparable value for value; feasibility is the contract.)
func TestRunWarmLPRRIsValid(t *testing.T) {
	pr := testProblem(2, 6)
	load := UniformLoadModel{K: 6, Min: 0.4, Max: 1.0, Seed: 17}
	rng := rand.New(rand.NewSource(5))
	var basis *lp.Basis
	injectEpochs(t, pr, load, core.MAXMIN, 8, func(e int, m *core.Model, epr *core.Problem) {
		alloc, next, err := warmRun(heuristics.NameLPRR, m, epr, basis, rng)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		basis = next
		if err := epr.CheckAllocation(alloc, core.DefaultTol); err != nil {
			t.Fatalf("epoch %d: allocation invalid on its platform: %v", e, err)
		}
		if v := epr.Objective(core.MAXMIN, alloc); !(v > 0) {
			t.Fatalf("epoch %d: objective %g, want > 0", e, v)
		}
	})
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
