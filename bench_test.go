// Root benchmark harness: one benchmark per evaluation artifact of
// the paper (DESIGN.md "Experiment index"). The figure benchmarks
// report the measured mean objective ratios via b.ReportMetric, so
// `go test -bench=.` regenerates the numbers behind every table and
// figure at benchmark scale; cmd/experiments runs the same sweeps at
// full scale. E9–E10 time the solver stack at library level (cold LP,
// warm BnB); everything about the schedd serving path, the epoch commit
// included, is measured by bench/ (BENCHMARK.json), not here.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/netsim"
	"repro/internal/platgen"
	"repro/internal/reduction"
	"repro/internal/schedule"
)

func benchProblem(b *testing.B, k int, seed int64) *core.Problem {
	b.Helper()
	params := platgen.Params{K: k, Connectivity: 0.4, Heterogeneity: 0.4, MeanG: 250, MeanBW: 50, MeanMaxCon: 15}
	pl, err := platgen.Generate(params, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	return core.NewProblem(pl)
}

// BenchmarkE1_Table1PlatformGeneration regenerates Table 1 platforms
// (a sweep sample) per iteration.
func BenchmarkE1_Table1PlatformGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var grid []platgen.Params
	for i := 0; i < 32; i++ {
		p, err := platgen.Sample(5+10*(i%5), rng, nil) // K = 5..45
		if err != nil {
			b.Fatal(err)
		}
		grid = append(grid, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range grid {
			if _, err := platgen.Generate(p, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE2_AggregateRatios regenerates the §6.1 headline
// aggregates (LPRG/G = 1.98 MAXMIN, 1.02 SUM in the paper) and
// reports the measured values as custom metrics.
func BenchmarkE2_AggregateRatios(b *testing.B) {
	opts := experiments.Options{Seed: 1, PlatformsPer: 3, Ks: []int{5, 15, 25}, LPRRMaxK: 0}
	var agg *experiments.Aggregate
	for i := 0; i < b.N; i++ {
		var err error
		agg, err = experiments.AggregateRatios(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(agg.LPRGOverG[core.MAXMIN], "LPRG/G-maxmin")
	b.ReportMetric(agg.LPRGOverG[core.SUM], "LPRG/G-sum")
	b.ReportMetric(agg.LPROverLP[core.MAXMIN], "LPR/LP-maxmin")
}

// BenchmarkE3_Figure5 regenerates a Figure 5 sweep point set (LPRG
// and G against the LP bound as K grows) and reports the large-K
// ratios.
func BenchmarkE3_Figure5(b *testing.B) {
	opts := experiments.Options{Seed: 1, PlatformsPer: 2, Ks: []int{5, 25}, LPRRMaxK: 0}
	var pts []experiments.RatioPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure5(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Ratio[core.MAXMIN][heuristics.NameLPRG], "maxmin-LPRG/LP")
	b.ReportMetric(last.Ratio[core.MAXMIN][heuristics.NameG], "maxmin-G/LP")
	b.ReportMetric(last.Ratio[core.SUM][heuristics.NameLPRG], "sum-LPRG/LP")
}

// BenchmarkE4_Figure6 regenerates a Figure 6 point (LPRR and its
// equal-probability control against G/LPRG on small topologies).
func BenchmarkE4_Figure6(b *testing.B) {
	opts := experiments.Options{Seed: 1, PlatformsPer: 2, Ks: []int{10}, LPRRMaxK: 10}
	var pts []experiments.RatioPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure6(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	pt := pts[0]
	b.ReportMetric(pt.Ratio[core.MAXMIN][heuristics.NameLPRR], "maxmin-LPRR/LP")
	b.ReportMetric(pt.Ratio[core.MAXMIN][heuristics.NameLPRREQ], "maxmin-LPRR-EQ/LP")
	b.ReportMetric(pt.Ratio[core.MAXMIN][heuristics.NameLPRG], "maxmin-LPRG/LP")
}

// BenchmarkE5_Figure7_* time one run of each heuristic at K=20 — the
// per-heuristic cost that Figure 7 plots (G ≪ LPR ≈ LPRG ≪ LPRR).
func BenchmarkE5_Figure7_G(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heuristics.Greedy(pr)
	}
}

func BenchmarkE5_Figure7_LP(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Relax(pr, core.MAXMIN); err != nil {
			b.Fatal(err)
		}
	}
}

// LPR, LPRG and LPRR start from the relaxation, so what Figure 7
// charges them is its one solve plus their own work.
func BenchmarkE5_Figure7_LPR(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := heuristics.Relax(pr, core.MAXMIN)
		if err != nil {
			b.Fatal(err)
		}
		heuristics.LPR(pr, rel.RelaxedSolution)
	}
}

func BenchmarkE5_Figure7_LPRG(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := heuristics.Relax(pr, core.MAXMIN)
		if err != nil {
			b.Fatal(err)
		}
		heuristics.LPRG(pr, rel.RelaxedSolution)
	}
}

func BenchmarkE5_Figure7_LPRR(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := heuristics.Relax(pr, core.MAXMIN)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := heuristics.Run(heuristics.NameLPRR, pr, rel, rng, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_LPSolver_Revised cold-solves the same K=20 relaxation in
// the α-space encoding (core.RelaxedApps, one application per cluster
// of origin that cluster), where BenchmarkE5_Figure7_LP cold-solves the
// (α, β) model every heuristic rounds: the two read side by side are
// what a cold start from the α-space optimum could save, per solve.
func BenchmarkE9_LPSolver_Revised(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	origins := make([]int, pr.K())
	for k := range origins {
		origins[k] = k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := core.RelaxedApps(pr.Platform, origins, pr.Payoffs, core.MAXMIN); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkE10_BnBWarm_* time the exact branch-and-bound solver
// (warm-started revised-simplex re-solves from the parent basis) on
// K ∈ {4,6,8} platforms. The instances are network-bound (tight
// connection budgets and bandwidths, non-uniform payoffs), so the root
// relaxation is fractional and the tree actually branches.
func benchBnBProblem(b *testing.B, k int) *core.Problem {
	b.Helper()
	params := platgen.Params{K: k, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5}
	pl, err := platgen.Generate(params, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	pr := core.NewProblem(pl)
	for i := range pr.Payoffs {
		pr.Payoffs[i] = float64(1 + i%3)
	}
	return pr
}

func benchBnB(b *testing.B, k int) {
	pr := benchBnBProblem(b, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := heuristics.Relax(pr, core.SUM)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := heuristics.Run(heuristics.NameBnB, pr, rel, nil, 4000); err != nil && err != heuristics.ErrNodeBudget {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_BnBWarm_K4(b *testing.B) { benchBnB(b, 4) }
func BenchmarkE10_BnBWarm_K6(b *testing.B) { benchBnB(b, 6) }
func BenchmarkE10_BnBWarm_K8(b *testing.B) { benchBnB(b, 8) }

// BenchmarkE7_ReductionExactSolve builds the §4 instance for a
// 5-cycle and solves it exactly (Theorem 1 equivalence).
func BenchmarkE7_ReductionExactSolve(b *testing.B) {
	g := reduction.Graph{N: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}}
	var exact float64
	for i := 0; i < b.N; i++ {
		inst, err := reduction.Build(g)
		if err != nil {
			b.Fatal(err)
		}
		rel, err := heuristics.Relax(inst.Problem, core.SUM)
		if err != nil {
			b.Fatal(err)
		}
		res, err := heuristics.Run(heuristics.NameBnB, inst.Problem, rel, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		exact = res.Value
	}
	b.ReportMetric(exact, "optimum")
}

// BenchmarkE8_ScheduleSimulate runs the full pipeline: greedy solve,
// §3.2 reconstruction, and paced execution on the flow simulator.
func BenchmarkE8_ScheduleSimulate(b *testing.B) {
	pr := benchProblem(b, 12, 5)
	var fits bool
	for i := 0; i < b.N; i++ {
		alloc := heuristics.Greedy(pr)
		s, err := schedule.Build(pr, alloc, 100000)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := netsim.ExecuteSchedule(pr, s, 50)
		if err != nil {
			b.Fatal(err)
		}
		fits = rep.FitsPeriod
	}
	if !fits {
		b.Fatal("paced schedule must fit its period")
	}
}

// BenchmarkAblation_GreedyLocalRule compares the paper-faithful G
// against the full-drain variant (DESIGN.md "Experiment index"):
// the metric is the mean SUM ratio gained by draining stranded local
// speed.
func BenchmarkAblation_GreedyLocalRule(b *testing.B) {
	prs := make([]*core.Problem, 6)
	for i := range prs {
		prs[i] = benchProblem(b, 15, int64(100+i))
	}
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gain = 0
		for _, pr := range prs {
			g := pr.Objective(core.SUM, heuristics.Greedy(pr))
			gf := pr.Objective(core.SUM, heuristics.GreedyFullDrain(pr))
			if g > 0 {
				gain += gf / g
			}
		}
		gain /= float64(len(prs))
	}
	b.ReportMetric(gain, "G-FULL/G-sum")
}

// BenchmarkAblation_LPRRRoundingRule compares proportional vs equal
// probability rounding (§6.2's observation that the equal variant is
// much worse) as a quality metric.
func BenchmarkAblation_LPRRRoundingRule(b *testing.B) {
	pr := benchProblem(b, 10, 7)
	rng := rand.New(rand.NewSource(1))
	var prop, eq float64
	for i := 0; i < b.N; i++ {
		rel, err := heuristics.Relax(pr, core.MAXMIN)
		if err != nil {
			b.Fatal(err)
		}
		ap, err := heuristics.Run(heuristics.NameLPRR, pr, rel, rng, 0)
		if err != nil {
			b.Fatal(err)
		}
		ae, err := heuristics.Run(heuristics.NameLPRREQ, pr, rel, rng, 0)
		if err != nil {
			b.Fatal(err)
		}
		prop, eq = ap.Value, ae.Value
	}
	b.ReportMetric(prop, "maxmin-proportional")
	b.ReportMetric(eq, "maxmin-equal")
}
