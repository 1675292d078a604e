package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/platgen"
	"repro/internal/schedule"
)

// triangle builds 3 clusters, all routers pairwise linked, with the
// given gateways; backbone bw 1000 and maxcon 100 (non-binding).
func triangle(g0, g1, g2 float64) *platform.Platform {
	p := &platform.Platform{
		Routers: 3,
		Links: []platform.Link{
			{U: 0, V: 1, BW: 1000, MaxConnect: 100},
			{U: 1, V: 2, BW: 1000, MaxConnect: 100},
			{U: 0, V: 2, BW: 1000, MaxConnect: 100},
		},
		Clusters: []platform.Cluster{
			{Name: "a", Speed: 100, Gateway: g0, Router: 0},
			{Name: "b", Speed: 100, Gateway: g1, Router: 1},
			{Name: "c", Speed: 100, Gateway: g2, Router: 2},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		panic(err)
	}
	return p
}

func inf() float64 { return math.Inf(1) }

func TestRatesSingleFlow(t *testing.T) {
	pl := triangle(10, 20, 30)
	r, err := Rates(pl, []Flow{{Src: 0, Dst: 1, Size: 1, Cap: inf(), Limit: inf()}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-10) > 1e-9 {
		t.Fatalf("rate = %g, want 10 (source gateway)", r[0])
	}
}

func TestRatesFairSharing(t *testing.T) {
	// Two flows out of gateway 0 (capacity 10): 5 each.
	pl := triangle(10, 100, 100)
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 1, Cap: inf(), Limit: inf()},
		{Src: 0, Dst: 2, Size: 1, Cap: inf(), Limit: inf()},
	}
	r, err := Rates(pl, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-5) > 1e-9 || math.Abs(r[1]-5) > 1e-9 {
		t.Fatalf("rates = %v, want [5 5]", r)
	}
}

func TestRatesCapRedistribution(t *testing.T) {
	// Gateway 0 capacity 10; flow A capped at 2 — flow B picks up the
	// leftover 8 (max-min with ceilings).
	pl := triangle(10, 100, 100)
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 1, Cap: 2, Limit: inf()},
		{Src: 0, Dst: 2, Size: 1, Cap: inf(), Limit: inf()},
	}
	r, err := Rates(pl, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-2) > 1e-9 || math.Abs(r[1]-8) > 1e-9 {
		t.Fatalf("rates = %v, want [2 8]", r)
	}
}

func TestRatesDestinationBottleneck(t *testing.T) {
	// Flows from 0 and 1 into gateway 2 (capacity 6): 3 each, even
	// though the sources could push 100.
	pl := triangle(100, 100, 6)
	flows := []Flow{
		{Src: 0, Dst: 2, Size: 1, Cap: inf(), Limit: inf()},
		{Src: 1, Dst: 2, Size: 1, Cap: inf(), Limit: inf()},
	}
	r, err := Rates(pl, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-3) > 1e-9 || math.Abs(r[1]-3) > 1e-9 {
		t.Fatalf("rates = %v, want [3 3]", r)
	}
}

func TestRatesLimitActsAsCeiling(t *testing.T) {
	pl := triangle(10, 100, 100)
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 1, Cap: inf(), Limit: 1.5},
		{Src: 0, Dst: 2, Size: 1, Cap: inf(), Limit: inf()},
	}
	r, err := Rates(pl, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-1.5) > 1e-9 || math.Abs(r[1]-8.5) > 1e-9 {
		t.Fatalf("rates = %v, want [1.5 8.5]", r)
	}
}

func TestRatesErrors(t *testing.T) {
	pl := triangle(10, 10, 10)
	if _, err := Rates(pl, []Flow{{Src: 0, Dst: 0, Size: 1, Cap: 1, Limit: 1}}); err == nil {
		t.Fatal("self-flow must error")
	}
	if _, err := Rates(pl, []Flow{{Src: 0, Dst: 9, Size: 1, Cap: 1, Limit: 1}}); err == nil {
		t.Fatal("out-of-range endpoint must error")
	}
	if _, err := Rates(pl, []Flow{{Src: 0, Dst: 1, Size: 1, Cap: -1, Limit: 1}}); err == nil {
		t.Fatal("negative cap must error")
	}
}

// TestPropertyRatesFeasibleAndMaxMin: on random flow sets, the rates
// never violate a gateway or a cap, and no flow both sits strictly
// below its ceiling and below the level of every bottleneck it
// crosses (max-min property: a flow below its cap must cross a
// saturated gateway where it is among the largest rates).
func TestPropertyRatesFeasibleAndMaxMin(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pl := triangle(1+9*rng.Float64(), 1+9*rng.Float64(), 1+9*rng.Float64())
		n := 1 + rng.Intn(8)
		flows := make([]Flow, n)
		for i := range flows {
			s := rng.Intn(3)
			d := (s + 1 + rng.Intn(2)) % 3
			cp := inf()
			if rng.Float64() < 0.5 {
				cp = 0.2 + 5*rng.Float64()
			}
			flows[i] = Flow{Src: s, Dst: d, Size: 1, Cap: cp, Limit: inf()}
		}
		rates, err := Rates(pl, flows)
		if err != nil {
			return false
		}
		// Feasibility.
		use := make([]float64, 3)
		for i, f := range flows {
			if rates[i] < -1e-12 || rates[i] > f.Cap+1e-9 {
				return false
			}
			use[f.Src] += rates[i]
			use[f.Dst] += rates[i]
		}
		for k := 0; k < 3; k++ {
			if use[k] > pl.Clusters[k].Gateway+1e-7 {
				return false
			}
		}
		// Max-min: every flow below its cap must cross a gateway that
		// is saturated and on which no other flow has a strictly
		// larger rate than it (otherwise its rate could be raised).
		for i, f := range flows {
			if rates[i] >= f.Cap-1e-9 {
				continue
			}
			ok := false
			for _, k := range []int{f.Src, f.Dst} {
				if use[k] < pl.Clusters[k].Gateway-1e-7 {
					continue
				}
				larger := false
				for j, g := range flows {
					if j != i && (g.Src == k || g.Dst == k) && rates[j] > rates[i]+1e-7 && rates[j] < g.Cap-1e-9 {
						larger = true
					}
				}
				if !larger {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateFlowsWorkConservation(t *testing.T) {
	// Gateway 0 cap 10, flows of size 30 and 10 to different dests:
	// phase 1 both at 5 until B drains (t=2), then A at 10:
	// remaining 20 → t = 2 + 2 = 4.
	pl := triangle(10, 100, 100)
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 30, Cap: inf(), Limit: inf()},
		{Src: 0, Dst: 2, Size: 10, Cap: inf(), Limit: inf()},
	}
	done, makespan, err := SimulateFlows(pl, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(makespan-4) > 1e-9 {
		t.Fatalf("makespan = %g, want 4", makespan)
	}
	times := map[int]float64{}
	for _, c := range done {
		times[c.Flow] = c.Finished
	}
	if math.Abs(times[1]-2) > 1e-9 || math.Abs(times[0]-4) > 1e-9 {
		t.Fatalf("completions = %v", times)
	}
}

func TestSimulateFlowsCapStretchesMakespan(t *testing.T) {
	// The example of DESIGN.md, "§2 simulator substitute": g0=2
	// shared by A(size 3, cap 1.5) and B(size 1): max-min gives both
	// 1; B done at 1; then A at 1.5: 2 remaining → t = 1 + 4/3 ≈ 2.333
	// — exceeding the "period" 2 that a paced schedule would meet.
	pl := triangle(2, 100, 100)
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 3, Cap: 1.5, Limit: inf()},
		{Src: 0, Dst: 2, Size: 1, Cap: inf(), Limit: inf()},
	}
	_, makespan, err := SimulateFlows(pl, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(makespan-(1+4.0/3)) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", makespan, 1+4.0/3)
	}
	// Paced, both flows fit in period 2.
	flows[0].Limit = 1.5
	flows[1].Limit = 0.5
	_, makespan, err = SimulateFlows(pl, flows)
	if err != nil {
		t.Fatal(err)
	}
	if makespan > 2+1e-9 {
		t.Fatalf("paced makespan = %g, want <= 2", makespan)
	}
}

func TestSimulateFlowsZeroSizeAndStall(t *testing.T) {
	pl := triangle(10, 10, 10)
	done, makespan, err := SimulateFlows(pl, []Flow{{Src: 0, Dst: 1, Size: 0, Cap: 1, Limit: 1}})
	if err != nil || makespan != 0 || len(done) != 1 {
		t.Fatalf("zero-size flow: done=%v makespan=%g err=%v", done, makespan, err)
	}
	if _, _, err := SimulateFlows(pl, []Flow{{Src: 0, Dst: 1, Size: 5, Cap: 0, Limit: inf()}}); err == nil {
		t.Fatal("stalled flow must error")
	}
	if _, _, err := SimulateFlows(pl, []Flow{{Src: 0, Dst: 1, Size: -5, Cap: 1, Limit: 1}}); err == nil {
		t.Fatal("negative size must error")
	}
}

func buildScheduleFor(t *testing.T, seed int64, maxK int) (*core.Problem, *schedule.Schedule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	params := platgen.Params{
		K:             2 + rng.Intn(maxK-1),
		Connectivity:  0.4 + 0.4*rng.Float64(),
		Heterogeneity: 0.2 + 0.4*rng.Float64(),
		MeanG:         50 + 200*rng.Float64(),
		MeanBW:        10 + 50*rng.Float64(),
		MeanMaxCon:    2 + 10*rng.Float64(),
	}
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.NewProblem(pl)
	alloc := heuristics.Greedy(pr)
	s, err := schedule.Build(pr, alloc, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return pr, s
}

func TestExecuteSchedulePacedFits(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		pr, s := buildScheduleFor(t, seed, 8)
		rep, err := ExecuteSchedule(pr, s, 50)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.FitsPeriod {
			t.Fatalf("seed %d: paced schedule does not fit its period (cycle %g vs period %g)", seed, rep.CycleTime, s.Period)
		}
		for k := 0; k < pr.K(); k++ {
			if rep.Achieved[k] > rep.Predicted[k]+1e-9 {
				t.Fatalf("seed %d app %d: achieved %g > predicted %g", seed, k, rep.Achieved[k], rep.Predicted[k])
			}
			// Over 50 periods the loss is the 1/50 startup factor.
			if rep.Predicted[k] > 0 && rep.Achieved[k] < rep.Predicted[k]*0.97 {
				t.Fatalf("seed %d app %d: achieved %g too far below predicted %g", seed, k, rep.Achieved[k], rep.Predicted[k])
			}
		}
	}
}

// TestScheduleAchievesThroughput is the end-to-end check of DESIGN.md,
// "§2 simulator substitute": generate → solve → reconstruct →
// simulate, asserting the measured steady-state throughput matches
// the allocation's prediction within the startup transient.
func TestScheduleAchievesThroughput(t *testing.T) {
	pr, s := buildScheduleFor(t, 42, 10)
	const periods = 200
	rep, err := ExecuteSchedule(pr, s, periods)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < pr.K(); k++ {
		want := rep.Predicted[k] * float64(periods-1) / float64(periods)
		if math.Abs(rep.Achieved[k]-want) > 1e-9*(1+want) {
			t.Fatalf("app %d: achieved %g, want %g", k, rep.Achieved[k], want)
		}
	}
}

func TestExecuteScheduleArgValidation(t *testing.T) {
	pr, s := buildScheduleFor(t, 1, 5)
	if _, err := ExecuteSchedule(pr, s, 1); err == nil {
		t.Fatal("periods < 2 must error")
	}
}

func BenchmarkRates100Flows(b *testing.B) {
	pl := triangle(50, 60, 70)
	rng := rand.New(rand.NewSource(1))
	flows := make([]Flow, 100)
	for i := range flows {
		s := rng.Intn(3)
		flows[i] = Flow{Src: s, Dst: (s + 1) % 3, Size: 1, Cap: 0.5 + rng.Float64(), Limit: inf()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rates(pl, flows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteSchedule(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	params := platgen.Params{K: 10, Connectivity: 0.5, Heterogeneity: 0.4, MeanG: 250, MeanBW: 50, MeanMaxCon: 15}
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		b.Fatal(err)
	}
	pr := core.NewProblem(pl)
	alloc := heuristics.Greedy(pr)
	s, err := schedule.Build(pr, alloc, 100000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteSchedule(pr, s, 20); err != nil {
			b.Fatal(err)
		}
	}
}
