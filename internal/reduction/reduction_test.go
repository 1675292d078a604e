package reduction

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristics"
)

func path3() Graph { return Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}}} }
func triangle() Graph {
	return Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
}
func cycle5() Graph {
	return Graph{N: 5, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}}
}
func star4() Graph { // center 0 with 3 leaves
	return Graph{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}}}
}
func empty3() Graph { return Graph{N: 3} }
func k4() Graph {
	return Graph{N: 4, Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}}
}

func TestGraphValidate(t *testing.T) {
	if err := path3().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Graph{
		{N: -1},
		{N: 2, Edges: [][2]int{{0, 5}}},
		{N: 2, Edges: [][2]int{{1, 1}}},
		{N: 2, Edges: [][2]int{{0, 1}, {1, 0}}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d must fail validation", i)
		}
	}
}

func TestBruteMIS(t *testing.T) {
	cases := []struct {
		g    Graph
		want int
	}{
		{empty3(), 3},
		{path3(), 2},
		{triangle(), 1},
		{cycle5(), 2},
		{star4(), 3},
		{k4(), 1},
	}
	for i, tc := range cases {
		size, witness, err := MaxIndependentSetBrute(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if size != tc.want {
			t.Fatalf("case %d: MIS = %d, want %d", i, size, tc.want)
		}
		if len(witness) != size {
			t.Fatalf("case %d: witness %v does not match size %d", i, witness, size)
		}
		// Witness must be independent.
		inSet := make(map[int]bool)
		for _, v := range witness {
			inSet[v] = true
		}
		for _, e := range tc.g.Edges {
			if inSet[e[0]] && inSet[e[1]] {
				t.Fatalf("case %d: witness %v contains edge %v", i, witness, e)
			}
		}
	}
	if _, _, err := MaxIndependentSetBrute(Graph{N: 30}); err == nil {
		t.Fatal("oversized graph must be rejected")
	}
}

func TestBuildStructure(t *testing.T) {
	g := path3()
	inst, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	pr := inst.Problem
	if pr.K() != 4 {
		t.Fatalf("K = %d, want n+1 = 4", pr.K())
	}
	pl := pr.Platform
	if pl.Clusters[0].Speed != 0 || pl.Clusters[0].Gateway != 3 {
		t.Fatalf("C0 = %+v", pl.Clusters[0])
	}
	for i := 1; i <= 3; i++ {
		if pl.Clusters[i].Speed != 1 || pl.Clusters[i].Gateway != 1 {
			t.Fatalf("C%d = %+v", i, pl.Clusters[i])
		}
	}
	if pr.Payoffs[0] != 1 || pr.Payoffs[1] != 0 {
		t.Fatalf("payoffs = %v", pr.Payoffs)
	}
	for _, l := range pl.Links {
		if l.BW != 1 || l.MaxConnect != 1 {
			t.Fatalf("non-unit link %+v", l)
		}
	}
	// Routers: n+1 cluster routers + 2 per edge.
	if pl.Routers != 4+2*2 {
		t.Fatalf("routers = %d", pl.Routers)
	}
}

// TestLemma1 machine-checks Lemma 1 on several graphs: routes
// L_{0,i} and L_{0,j} share a backbone link iff (V_i,V_j) ∈ E.
func TestLemma1(t *testing.T) {
	graphs := []Graph{path3(), triangle(), cycle5(), star4(), empty3(), k4()}
	for gi, g := range graphs {
		inst, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		adj := make(map[[2]int]bool)
		for _, e := range g.Edges {
			adj[[2]int{e[0], e[1]}] = true
			adj[[2]int{e[1], e[0]}] = true
		}
		for i := 0; i < g.N; i++ {
			for j := i + 1; j < g.N; j++ {
				share := inst.RoutesShareLink(i, j)
				if share != adj[[2]int{i, j}] {
					t.Fatalf("graph %d: Lemma 1 fails for (%d,%d): share=%v edge=%v", gi, i, j, share, adj[[2]int{i, j}])
				}
			}
		}
	}
}

// TestLemma1Random repeats the Lemma 1 check on random graphs.
func TestLemma1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		var g Graph
		g.N = n
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.Edges = append(g.Edges, [2]int{u, v})
				}
			}
		}
		inst, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		adj := make(map[[2]int]bool)
		for _, e := range g.Edges {
			adj[[2]int{e[0], e[1]}] = true
			adj[[2]int{e[1], e[0]}] = true
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if inst.RoutesShareLink(i, j) != adj[[2]int{i, j}] {
					t.Fatalf("trial %d: Lemma 1 fails for (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestIndependentSetAllocationValid(t *testing.T) {
	// The forward direction of Theorem 1: an independent set yields a
	// valid allocation with throughput |V'|.
	for _, g := range []Graph{path3(), triangle(), cycle5(), star4(), empty3()} {
		size, witness, err := MaxIndependentSetBrute(g)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		a := inst.IndependentSetAllocation(witness)
		if err := inst.Problem.CheckAllocation(a, core.DefaultTol); err != nil {
			t.Fatalf("independent-set allocation invalid: %v", err)
		}
		if got := a.AppThroughput(0); math.Abs(got-float64(size)) > 1e-12 {
			t.Fatalf("throughput = %g, want %d", got, size)
		}
	}
}

func TestDependentSetAllocationInvalid(t *testing.T) {
	// Two adjacent vertices share a common link with max-connect 1:
	// the corresponding allocation must violate Eq. 7d.
	inst, err := Build(path3())
	if err != nil {
		t.Fatal(err)
	}
	a := inst.IndependentSetAllocation([]int{0, 1}) // edge (0,1) exists
	if err := inst.Problem.CheckAllocation(a, core.DefaultTol); err == nil {
		t.Fatal("allocation over adjacent vertices must be invalid")
	}
}

// TestTheorem1Equivalence is experiment E7: the exact optimum of the
// constructed instance equals the brute-force MIS size, while the LP
// relaxation may exceed it (e.g. 1.5 on the triangle).
func TestTheorem1Equivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    Graph
	}{
		{"path3", path3()},
		{"triangle", triangle()},
		{"star4", star4()},
		{"empty3", empty3()},
		{"k4", k4()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mis, _, err := MaxIndependentSetBrute(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := Build(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := exactOptimum(inst.Problem, 200000)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exact-float64(mis)) > 1e-6 {
				t.Fatalf("exact throughput %g != MIS %d", exact, mis)
			}
		})
	}
}

func TestTriangleRelaxationExceedsInteger(t *testing.T) {
	// The integrality gap that powers the hardness proof: fractional
	// β values let the relaxation route half-connections through each
	// shared link, achieving 1.5 versus the integer optimum 1.
	inst, err := Build(triangle())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := heuristics.Relax(inst.Problem, core.SUM)
	if err != nil {
		t.Fatal(err)
	}
	ub := rel.Objective
	if ub < 1.5-1e-6 {
		t.Fatalf("LP bound = %g, want 1.5", ub)
	}
	res, err := heuristics.Run(heuristics.NameBnB, inst.Problem, rel, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if exact := res.Value; math.Abs(exact-1) > 1e-6 {
		t.Fatalf("integer optimum = %g, want 1", exact)
	}
}

func TestTheorem1RandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("BnB on random instances is slow in -short mode")
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(3) // 3..5 vertices
		var g Graph
		g.N = n
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					g.Edges = append(g.Edges, [2]int{u, v})
				}
			}
		}
		mis, _, err := MaxIndependentSetBrute(g)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := exactOptimum(inst.Problem, 500000)
		if err != nil {
			t.Fatalf("trial %d (n=%d, m=%d): %v", trial, n, len(g.Edges), err)
		}
		if math.Abs(exact-float64(mis)) > 1e-6 {
			t.Fatalf("trial %d: exact %g != MIS %d", trial, exact, mis)
		}
	}
}

func BenchmarkBuildCycle5(b *testing.B) {
	g := cycle5()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g); err != nil {
			b.Fatal(err)
		}
	}
}

// exactOptimum is the SUM optimum of pr by branch-and-bound from its
// relaxation, within maxNodes nodes.
func exactOptimum(pr *core.Problem, maxNodes int) (float64, error) {
	rel, err := heuristics.Relax(pr, core.SUM)
	if err != nil {
		return 0, err
	}
	res, err := heuristics.Run(heuristics.NameBnB, pr, rel, nil, maxNodes)
	return res.Value, err
}
