package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/platform"
)

func TestLexMaxMinSymmetricEqualsMAXMIN(t *testing.T) {
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	mm, ok, err := pr.Relaxed(MAXMIN)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	lex, err := pr.LexMaxMin()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if math.Abs(lex.Levels[k]-mm.Objective) > 1e-5 {
			t.Fatalf("level %d = %g, MAXMIN = %g", k, lex.Levels[k], mm.Objective)
		}
	}
}

func TestLexMaxMinRefinesMAXMIN(t *testing.T) {
	// Asymmetric: cluster 0 slow (30), cluster 1 fast (200), weak
	// interconnect. Plain MAXMIN pins everyone at the worst level;
	// lexicographic lets app 1 rise above it.
	pr := NewProblem(twoClusters(30, 200, 20, 20, 5, 1))
	mm, ok, err := pr.Relaxed(MAXMIN)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	lex, err := pr.LexMaxMin()
	if err != nil {
		t.Fatal(err)
	}
	minLevel := math.Min(lex.Levels[0], lex.Levels[1])
	if math.Abs(minLevel-mm.Objective) > 1e-5*(1+mm.Objective) {
		t.Fatalf("lex min level %g != MAXMIN %g", minLevel, mm.Objective)
	}
	if lex.Levels[1] <= mm.Objective+1 {
		t.Fatalf("lexicographic failed to refine: levels %v vs MAXMIN %g", lex.Levels, mm.Objective)
	}
	// The returned α must actually deliver the levels.
	for k := 0; k < 2; k++ {
		got := 0.0
		for _, v := range lex.Alpha[k] {
			got += v
		}
		if got*pr.Payoffs[k] < lex.Levels[k]-1e-5*(1+lex.Levels[k]) {
			t.Fatalf("app %d α sums to %g, level %g", k, got, lex.Levels[k])
		}
	}
}

func TestLexMaxMinZeroPayoffExcluded(t *testing.T) {
	pr := NewProblem(twoClusters(100, 100, 50, 50, 10, 3))
	pr.Payoffs = []float64{1, 0}
	lex, err := pr.LexMaxMin()
	if err != nil {
		t.Fatal(err)
	}
	if lex.Levels[1] != 0 {
		t.Fatalf("zero-payoff app has level %g", lex.Levels[1])
	}
	if lex.Levels[0] < 100 {
		t.Fatalf("app 0 level %g, want >= 100", lex.Levels[0])
	}
	pr.Payoffs = []float64{0, 0}
	if _, err := pr.LexMaxMin(); err == nil {
		t.Fatal("all-zero payoffs must error")
	}
}

func TestLexMaxMinThreeTier(t *testing.T) {
	// Three clusters on a line with decreasing speeds and a tight
	// middle: levels should be non-degenerate and sorted levels must
	// dominate the uniform MAXMIN vector.
	p := &platform.Platform{
		Routers: 3,
		Links: []platform.Link{
			{U: 0, V: 1, BW: 5, MaxConnect: 2},
			{U: 1, V: 2, BW: 5, MaxConnect: 2},
		},
		Clusters: []platform.Cluster{
			{Name: "a", Speed: 20, Gateway: 15, Router: 0},
			{Name: "b", Speed: 80, Gateway: 15, Router: 1},
			{Name: "c", Speed: 300, Gateway: 15, Router: 2},
		},
	}
	if err := p.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	pr := NewProblem(p)
	mm, ok, err := pr.Relaxed(MAXMIN)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	lex, err := pr.LexMaxMin()
	if err != nil {
		t.Fatal(err)
	}
	lv := append([]float64(nil), lex.Levels...)
	sort.Float64s(lv)
	if math.Abs(lv[0]-mm.Objective) > 1e-5*(1+mm.Objective) {
		t.Fatalf("smallest lex level %g != MAXMIN %g", lv[0], mm.Objective)
	}
	for i := 1; i < len(lv); i++ {
		if lv[i] < lv[i-1]-1e-9 {
			t.Fatal("levels not sorted after sorting?!")
		}
	}
	// The largest level must exceed the smallest (the platform is
	// heterogeneous enough that uniform levels are suboptimal).
	if lv[2] <= lv[0]+1 {
		t.Fatalf("lexicographic degenerated to uniform: %v", lv)
	}
}

func TestLexMaxMinRandomPlatformsConsistency(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		pr := randomProblem(seed, 6)
		mm, ok, err := pr.Relaxed(MAXMIN)
		if err != nil || !ok {
			t.Fatalf("seed %d: ok=%v err=%v", seed, ok, err)
		}
		lex, err := pr.LexMaxMin()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		minLevel := math.Inf(1)
		for k, lv := range lex.Levels {
			if pr.Payoffs[k] > 0 && lv < minLevel {
				minLevel = lv
			}
		}
		if math.Abs(minLevel-mm.Objective) > 1e-4*(1+mm.Objective) {
			t.Fatalf("seed %d: lex min %g vs MAXMIN %g", seed, minLevel, mm.Objective)
		}
	}
}

func BenchmarkLexMaxMinK8(b *testing.B) {
	pr := randomProblem(3, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.LexMaxMin(); err != nil {
			b.Fatal(err)
		}
	}
}
