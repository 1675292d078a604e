package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/platgen"
)

func twoClusterProblem() *core.Problem {
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
	return core.NewProblem(p)
}

func randomSolvedProblem(seed int64, maxK int) (*core.Problem, *core.Allocation) {
	rng := rand.New(rand.NewSource(seed))
	params := platgen.Params{
		K:             2 + rng.Intn(maxK-1),
		Connectivity:  0.3 + 0.5*rng.Float64(),
		Heterogeneity: 0.2 + 0.6*rng.Float64(),
		MeanG:         50 + 400*rng.Float64(),
		MeanBW:        10 + 80*rng.Float64(),
		MeanMaxCon:    2 + 20*rng.Float64(),
	}
	pl, err := platgen.Generate(params, rng)
	if err != nil {
		panic(err)
	}
	pr := core.NewProblem(pl)
	return pr, heuristics.Greedy(pr)
}

func TestBuildSimple(t *testing.T) {
	pr := twoClusterProblem()
	a := core.NewAllocation(2)
	a.Alpha[0][0] = 100
	a.Alpha[1][1] = 70
	a.Alpha[1][0] = 0 // cluster 0 already saturated
	s, err := Build(pr, a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Period != 1000 {
		t.Fatalf("period = %g", s.Period)
	}
	if s.Compute[0][0] != 100000 || s.Compute[1][1] != 70000 {
		t.Fatalf("compute = %v", s.Compute)
	}
	if got := s.Throughput(0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("throughput 0 = %g", got)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	pr := twoClusterProblem()
	a := core.NewAllocation(2)
	if _, err := Build(pr, a, 0); err == nil {
		t.Fatal("zero denominator must fail")
	}
	a.Alpha[0][0] = 1e9 // violates speed
	if _, err := Build(pr, a, 100); err == nil {
		t.Fatal("invalid allocation must fail")
	}
}

func TestBuildFlooringNeverGains(t *testing.T) {
	pr := twoClusterProblem()
	a := core.NewAllocation(2)
	a.Alpha[0][0] = 99.9995
	a.Alpha[1][1] = 33.3333333
	s, err := Build(pr, a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if s.Throughput(k) > a.AppThroughput(k)+1e-9 {
			t.Fatalf("app %d: schedule throughput %g exceeds allocation %g", k, s.Throughput(k), a.AppThroughput(k))
		}
		if a.AppThroughput(k)-s.Throughput(k) > 2.0/1000 {
			t.Fatalf("app %d: flooring lost too much: %g vs %g", k, s.Throughput(k), a.AppThroughput(k))
		}
	}
}

func TestBuildSnapsNearIntegers(t *testing.T) {
	// A value that is exactly 30 up to float noise must floor to
	// 30*denom, not 30*denom-1.
	pr := twoClusterProblem()
	a := core.NewAllocation(2)
	a.Alpha[0][1] = 29.999999999999996
	a.Beta[0][1] = 3
	s, err := Build(pr, a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Transfer[0][1] != 30000 {
		t.Fatalf("transfer = %d, want 30000", s.Transfer[0][1])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	pr := twoClusterProblem()
	a := core.NewAllocation(2)
	a.Alpha[0][1] = 20
	a.Beta[0][1] = 2
	s, err := Build(pr, a, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.Compute[0][1] += 1 << 40
	if err := s.Validate(pr); err == nil {
		t.Fatal("overloaded compute must fail validation")
	}
	s, _ = Build(pr, a, 100)
	s.Beta[0][1] = 99
	if err := s.Validate(pr); err == nil {
		t.Fatal("connection overflow must fail validation")
	}
	s, _ = Build(pr, a, 100)
	s.Transfer[0][1] = 1 << 40
	if err := s.Validate(pr); err == nil {
		t.Fatal("gateway/bandwidth overflow must fail validation")
	}
	s, _ = Build(pr, a, 100)
	s.Compute[0][1] = -1
	if err := s.Validate(pr); err == nil {
		t.Fatal("negative load must fail validation")
	}
}

// TestPropertyScheduleFromHeuristics: schedules built from greedy
// allocations on random platforms always validate, and their
// throughput is within K/denom of the allocation's.
func TestPropertyScheduleFromHeuristics(t *testing.T) {
	prop := func(seed int64) bool {
		pr, a := randomSolvedProblem(seed, 8)
		const denom = 100000
		s, err := Build(pr, a, denom)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for k := 0; k < pr.K(); k++ {
			th, at := s.Throughput(k), a.AppThroughput(k)
			if th > at+1e-9 {
				return false
			}
			if at-th > float64(pr.K())/denom+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildK20(b *testing.B) {
	pr, a := randomSolvedProblem(7, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pr, a, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}
