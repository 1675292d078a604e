package adapt

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristics"
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
	return heuristics.LPRG(pr, core.MAXMIN)
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

func TestRunAdaptiveBeatsStatic(t *testing.T) {
	pr := testProblem(3, 8)
	model := UniformLoadModel{K: 8, Min: 0.3, Max: 0.9, Seed: 4}
	results, err := Run(pr, lprgSolver, model, core.MAXMIN, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d epochs", len(results))
	}
	s := Summarize(results)
	if s.MeanAdaptive <= 0 {
		t.Fatal("adaptive mean should be positive")
	}
	// Re-optimizing can only help on average (it sees the real
	// capacities; the static baseline is throttled).
	if s.MeanAdaptive < s.MeanStatic-1e-9 {
		t.Fatalf("adaptive %g below static %g", s.MeanAdaptive, s.MeanStatic)
	}
	if s.Gain < 0 {
		t.Fatalf("gain = %g", s.Gain)
	}
}

func TestRunWithDiurnalSpeeds(t *testing.T) {
	pr := testProblem(5, 6)
	model := DiurnalModel{K: 6, Min: 0.4, Max: 1.0, Period: 6}
	results, err := Run(pr, lprgSolver, model, core.SUM, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Re-optimizing can only help at the LP level, but LPRG's rounding
	// is not monotone in the capacity information: an epoch's re-solve
	// can land on a different optimal vertex whose rounding is
	// slightly worse than the throttled static allocation (observed
	// shortfall ~0.2% under Dantzig pricing, ~1.1% under devex, which
	// legitimately picks different optimal vertices). Allow a small
	// per-epoch slack and require the aggregate to hold tightly.
	for _, r := range results {
		if r.Adaptive < 0.98*r.Static {
			t.Fatalf("epoch %d: adaptive %g far below static %g", r.Epoch, r.Adaptive, r.Static)
		}
	}
	s := Summarize(results)
	if s.MeanAdaptive < 0.995*s.MeanStatic {
		t.Fatalf("mean adaptive %g below mean static %g", s.MeanAdaptive, s.MeanStatic)
	}
}

func TestRunErrors(t *testing.T) {
	pr := testProblem(1, 4)
	model := UniformLoadModel{K: 4, Min: 0.5, Max: 1, Seed: 1}
	if _, err := Run(pr, lprgSolver, model, core.MAXMIN, 0); err == nil {
		t.Fatal("zero epochs must fail")
	}
	if _, err := RunWarm(pr, WarmLPRG(), model, core.MAXMIN, 0); err == nil {
		t.Fatal("zero epochs must fail on the warm path")
	}
	badModel := UniformLoadModel{K: 2, Min: 0.5, Max: 1, Seed: 1} // wrong K
	if _, err := Run(pr, lprgSolver, badModel, core.MAXMIN, 2); err == nil {
		t.Fatal("mismatched model must fail")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.Epochs != 0 || s.Gain != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]EpochResult{{Adaptive: 2, Static: 0}})
	if !math.IsInf(s.Gain, 1) {
		t.Fatalf("gain = %g, want +Inf", s.Gain)
	}
	s = Summarize([]EpochResult{{Adaptive: 0, Static: 0}})
	if s.Gain != 0 {
		t.Fatalf("gain = %g, want 0", s.Gain)
	}
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

func BenchmarkRun10Epochs(b *testing.B) {
	pr := testProblem(3, 8)
	model := UniformLoadModel{K: 8, Min: 0.3, Max: 0.9, Seed: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(pr, lprgSolver, model, core.MAXMIN, 10); err != nil {
			b.Fatal(err)
		}
	}
}
