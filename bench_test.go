// Root benchmark harness: one benchmark per evaluation artifact of
// the paper (DESIGN.md experiment index E1–E8). The figure benchmarks
// report the measured mean objective ratios via b.ReportMetric, so
// `go test -bench=.` regenerates the numbers behind every table and
// figure at benchmark scale; cmd/experiments runs the same sweeps at
// full scale.
package repro

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/netsim"
	"repro/internal/platgen"
	"repro/internal/reduction"
	"repro/internal/schedule"
	"repro/internal/service"
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
	grid := platgen.SampleGrid(32, 45, rng)
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
		if _, _, err := heuristics.UpperBound(pr, core.MAXMIN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_Figure7_LPR(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.LPR(pr, core.MAXMIN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_Figure7_LPRG(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.LPRG(pr, core.MAXMIN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_Figure7_LPRR(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.LPRR(pr, core.MAXMIN, heuristics.ProportionalRounding, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_LPSolver_Revised solves the K=20 rational relaxation
// through the one-shot Problem.Solve path: a cold revised-simplex
// solve per call.
func BenchmarkE9_LPSolver_Revised(b *testing.B) {
	pr := benchProblem(b, 20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := heuristics.UpperBound(pr, core.MAXMIN); err != nil {
			b.Fatal(err)
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
		_, _, err := heuristics.BranchAndBound(pr, core.SUM, 4000)
		if err != nil && err != heuristics.ErrNodeBudget {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_BnBWarm_K4(b *testing.B) { benchBnB(b, 4) }
func BenchmarkE10_BnBWarm_K6(b *testing.B) { benchBnB(b, 6) }
func BenchmarkE10_BnBWarm_K8(b *testing.B) { benchBnB(b, 8) }

// BenchmarkE11_Adaptive* time the §1 adaptability loop over 20
// epochs on a network-bound platform: the cold path rebuilds and
// cold-solves its LPs every epoch (pre-engine behavior), the warm
// path drives adapt's epoch engine — one persistent core.Model,
// RHS-only capacity mutations, root-basis reuse and (for BnB)
// incumbent carry-over. The warm/cold ratio is the measured payoff
// of the engine.
const benchAdaptiveEpochs = 20

func benchAdaptiveModel(pr *core.Problem) adapt.UniformLoadModel {
	return experiments.AdaptiveLoadModel(pr, 7)
}

func BenchmarkE11_AdaptiveColdBnB_K6(b *testing.B) {
	pr := benchBnBProblem(b, 6)
	model := benchAdaptiveModel(pr)
	solve := func(p *core.Problem) (*core.Allocation, error) {
		a, _, err := heuristics.BranchAndBound(p, core.SUM, 4000)
		if err == heuristics.ErrNodeBudget {
			err = nil
		}
		return a, err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapt.Run(pr, solve, model, core.SUM, benchAdaptiveEpochs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_AdaptiveWarmBnB_K6(b *testing.B) {
	pr := benchBnBProblem(b, 6)
	model := benchAdaptiveModel(pr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapt.RunWarm(pr, adapt.WarmBnBBudgetTolerant(4000, nil), model, core.SUM, benchAdaptiveEpochs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_AdaptiveColdLPRG_K12(b *testing.B) {
	pr := benchBnBProblem(b, 12)
	model := benchAdaptiveModel(pr)
	solve := func(p *core.Problem) (*core.Allocation, error) {
		m, err := p.NewModel(core.SUM)
		if err != nil {
			return nil, err
		}
		a, _, err := heuristics.LPRGOnModel(m, p, core.SUM, nil)
		return a, err
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapt.Run(pr, solve, model, core.SUM, benchAdaptiveEpochs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_AdaptiveWarmLPRG_K12(b *testing.B) {
	pr := benchBnBProblem(b, 12)
	model := benchAdaptiveModel(pr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapt.RunWarm(pr, adapt.WarmLPRG(), model, core.SUM, benchAdaptiveEpochs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchE15Session builds one warm scheduling-service session on the
// E15 network-bound platform plus its 256-query batch (64 distinct
// mutations, 4 copies each) — the acceptance workload behind
// BENCH_E15.json.
func benchE15Session(b *testing.B, k int) (*service.Session, []service.WhatIfRequest) {
	b.Helper()
	params := platgen.Params{K: k, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5}
	rng := rand.New(rand.NewSource(9))
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		b.Fatal(err)
	}
	encoded, err := pl.Encode()
	if err != nil {
		b.Fatal(err)
	}
	sess, _, _, err := service.NewPool(1).GetOrCreate(&service.CreateSessionRequest{
		Platform: encoded, Objective: "maxmin", Heuristic: "lprg",
	})
	if err != nil {
		b.Fatal(err)
	}
	routes := sess.BetaRoutes()
	const nd, n = 64, 256
	distinct := make([]service.WhatIfRequest, nd)
	for d := range distinct {
		c := d % k
		switch d % 4 {
		case 0:
			distinct[d] = service.WhatIfRequest{Speeds: []service.ClusterValue{{Cluster: c, Value: pl.Clusters[c].Speed * (0.5 + rng.Float64())}}, Relax: true}
		case 1:
			distinct[d] = service.WhatIfRequest{Gateways: []service.ClusterValue{{Cluster: c, Value: pl.Clusters[c].Gateway * (0.5 + rng.Float64())}}, Relax: true}
		case 2:
			distinct[d] = service.WhatIfRequest{Links: []service.LinkValue{{Link: rng.Intn(len(pl.Links)), MaxConnect: float64(1 + rng.Intn(9))}}, Relax: true}
		default:
			r := routes[rng.Intn(len(routes))]
			distinct[d] = service.WhatIfRequest{Bounds: []service.RouteBounds{{From: r.K, To: r.L, Lb: 0, Ub: float64(1 + rng.Intn(4))}}}
		}
	}
	queries := make([]service.WhatIfRequest, n)
	for i := range queries {
		queries[i] = distinct[i%nd]
	}
	rng.Shuffle(n, func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	return sess, queries
}

// BenchmarkE15_BatchWhatIf_K20 answers the 256-query acceptance batch
// through the batched engine (forked contexts + dedupe + lean
// reports); the qps metric is the headline BENCH_E15.json tracks.
func BenchmarkE15_BatchWhatIf_K20(b *testing.B) {
	sess, queries := benchE15Session(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.WhatIfBatch(&service.BatchWhatIfRequest{Queries: queries}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "qps")
}

// BenchmarkE15_SerialWhatIf_K20 answers the same batch one query at a
// time through the session mutex — the serialized baseline the batch
// speedup is measured against. The answer cache is flushed per query
// so duplicates measure the solve path, not cache hits.
func BenchmarkE15_SerialWhatIf_K20(b *testing.B) {
	sess, queries := benchE15Session(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi := range queries {
			q := queries[qi]
			q.Relax = true
			sess.FlushAnswerCache()
			if _, err := sess.WhatIf(&q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "qps")
}

// benchE16Snapshot builds one warm session on the E16 platform,
// drives it through 10 committed drift epochs, and returns the
// session plus its encoded snapshot — the portability workload behind
// BENCH_E16.json.
func benchE16Snapshot(b *testing.B, k int) (*service.Session, []byte) {
	b.Helper()
	params := platgen.Params{K: k, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5}
	rng := rand.New(rand.NewSource(16))
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		b.Fatal(err)
	}
	encoded, err := pl.Encode()
	if err != nil {
		b.Fatal(err)
	}
	sess, _, _, err := service.NewPool(1).GetOrCreate(&service.CreateSessionRequest{
		Platform: encoded, Objective: "maxmin", Heuristic: "lprg",
	})
	if err != nil {
		b.Fatal(err)
	}
	for e := 0; e < 10; e++ {
		req := &service.EpochRequest{SpeedFactor: make([]float64, k), GatewayFactor: make([]float64, k)}
		for i := 0; i < k; i++ {
			req.SpeedFactor[i] = 0.85 + 0.3*rng.Float64()
			req.GatewayFactor[i] = 0.85 + 0.3*rng.Float64()
		}
		if _, err := sess.Epoch(req); err != nil {
			b.Fatal(err)
		}
	}
	snap, err := sess.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		b.Fatal(err)
	}
	return sess, wire
}

// BenchmarkE16_WarmRebuild_K20 rebuilds a drifted session from its
// snapshot — decode, model build, basis install, warm solve — the
// path a replica runs on migration arrival or crash recovery.
func BenchmarkE16_WarmRebuild_K20(b *testing.B) {
	_, wire := benchE16Snapshot(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := cluster.DecodeSnapshot(wire)
		if err != nil {
			b.Fatal(err)
		}
		_, _, warm, err := service.RestoreSession(snap)
		if err != nil {
			b.Fatal(err)
		}
		if !warm {
			b.Fatal("rebuild was not warm")
		}
	}
}

// BenchmarkE16_ColdRebuild_K20 rebuilds the same committed state from
// its platform JSON alone — the baseline a replica without snapshots
// pays (model build + cold solve).
func BenchmarkE16_ColdRebuild_K20(b *testing.B) {
	sess, _ := benchE16Snapshot(b, 20)
	drifted, err := sess.PlatformJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := service.NewPool(1).GetOrCreate(&service.CreateSessionRequest{
			Platform: drifted, Objective: "maxmin", Heuristic: "lprg",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16_CacheHitQuery_K20 answers the committed query from the
// answer cache — zero simplex pivots, the fast path repeat monitors
// ride.
func BenchmarkE16_CacheHitQuery_K20(b *testing.B) {
	sess, _ := benchE16Snapshot(b, 20)
	if _, err := sess.Query(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sess.Query()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Cached {
			b.Fatal("query missed the answer cache")
		}
	}
}

// BenchmarkE16_CacheHitHTTP_K20 is the same hit with the handler in:
// mux, ingress middleware, cache lookup and the response written into
// a recorder — what a monitor polling schedd pays short of the socket.
func BenchmarkE16_CacheHitHTTP_K20(b *testing.B) {
	sess, _ := benchE16Snapshot(b, 20)
	pool := service.NewPool(1)
	pool.Install(sess)
	handler := service.NewServer(pool).Handler()
	path := "/sessions/" + sess.Info().ID + "/query"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("POST", path, nil))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("\n  \"cached\": true,\n")) {
			b.Fatalf("query missed the answer cache: status %d", rec.Code)
		}
	}
}

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
		_, exact, err = heuristics.BranchAndBound(inst.Problem, core.SUM, 0)
		if err != nil {
			b.Fatal(err)
		}
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
		rep, err := netsim.ExecuteSchedule(pr, s, 50, true)
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
// against the full-drain variant (DESIGN.md design-choice ablation):
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
		ap, err := heuristics.LPRR(pr, core.MAXMIN, heuristics.ProportionalRounding, rng)
		if err != nil {
			b.Fatal(err)
		}
		ae, err := heuristics.LPRR(pr, core.MAXMIN, heuristics.EqualRounding, rng)
		if err != nil {
			b.Fatal(err)
		}
		prop = pr.Objective(core.MAXMIN, ap)
		eq = pr.Objective(core.MAXMIN, ae)
	}
	b.ReportMetric(prop, "maxmin-proportional")
	b.ReportMetric(eq, "maxmin-equal")
}
