package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pathTo walks ShortestPaths' predecessor arrays back from dst, the way
// platform.ComputeRoutes builds a route: the visited nodes and the
// traversed edge ids, source first. ok is false when dst is
// unreachable.
func pathTo(g *Graph, src, dst int) (nodes, edges []int, cost float64, ok bool) {
	dist, prevEdge, prevNode := g.ShortestPaths(src)
	if math.IsInf(dist[dst], 1) {
		return nil, nil, 0, false
	}
	nodes = []int{dst}
	for at := dst; at != src; at = prevNode[at] {
		nodes = append([]int{prevNode[at]}, nodes...)
		edges = append([]int{prevEdge[at]}, edges...)
	}
	return nodes, edges, dist[dst], true
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if len(g.Edges) != 0 {
		t.Fatalf("empty graph has %d edges", len(g.Edges))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ShortestPaths on an empty graph must panic: it has no source node")
		}
	}()
	g.ShortestPaths(0)
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	e1 := g.AddEdge(0, 1, 3)
	e2 := g.AddEdge(0, 1, 1)
	if e1 != 0 || e2 != 1 || len(g.Edges) != 2 {
		t.Fatalf("parallel edges must get successive ids: %d %d, %d edges", e1, e2, len(g.Edges))
	}
	if g.Edges[e1] != (Edge{U: 0, V: 1, Weight: 3}) {
		t.Fatalf("edge %d = %+v", e1, g.Edges[e1])
	}
	_, edges, cost, ok := pathTo(g, 0, 1)
	if !ok {
		t.Fatal("path must exist")
	}
	if cost != 1 || len(edges) != 1 || edges[0] != e2 {
		t.Fatalf("shortest path should use the cheaper parallel edge: edges %v cost %g", edges, cost)
	}
}

func TestSelfLoopIgnoredInPaths(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0, 0.1)
	g.AddEdge(0, 1, 2)
	_, edges, cost, ok := pathTo(g, 0, 1)
	if !ok || cost != 2 || len(edges) != 1 || edges[0] != 1 {
		t.Fatalf("path edges %v cost %g ok=%v", edges, cost, ok)
	}
}

func TestShortestPathTriangle(t *testing.T) {
	// 0-1 cost 1, 1-2 cost 1, 0-2 cost 3: route 0->2 goes through 1.
	g := New(3)
	a := g.AddEdge(0, 1, 1)
	b := g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 3)
	nodes, edges, cost, ok := pathTo(g, 0, 2)
	if !ok {
		t.Fatal("unreachable")
	}
	if cost != 2 {
		t.Fatalf("cost = %g, want 2", cost)
	}
	if len(edges) != 2 || edges[0] != a || edges[1] != b {
		t.Fatalf("edges = %v, want [%d %d]", edges, a, b)
	}
	wantNodes := []int{0, 1, 2}
	for i, n := range nodes {
		if n != wantNodes[i] {
			t.Fatalf("nodes = %v", nodes)
		}
	}
}

func TestShortestPathToSelf(t *testing.T) {
	g := New(1)
	dist, prevEdge, prevNode := g.ShortestPaths(0)
	if dist[0] != 0 || prevEdge[0] != -1 || prevNode[0] != -1 {
		t.Fatalf("self: dist %g prevEdge %d prevNode %d", dist[0], prevEdge[0], prevNode[0])
	}
	nodes, edges, cost, ok := pathTo(g, 0, 0)
	if !ok || cost != 0 || len(edges) != 0 || len(nodes) != 1 {
		t.Fatalf("self path nodes %v edges %v cost %g ok=%v", nodes, edges, cost, ok)
	}
}

func TestUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	dist, prevEdge, prevNode := g.ShortestPaths(0)
	for _, v := range []int{2, 3} {
		if !math.IsInf(dist[v], 1) || prevEdge[v] != -1 || prevNode[v] != -1 {
			t.Fatalf("0 and %d must be unreachable: dist %g prevEdge %d prevNode %d", v, dist[v], prevEdge[v], prevNode[v])
		}
	}
	if dist[1] != 1 || prevEdge[1] != 0 || prevNode[1] != 0 {
		t.Fatalf("within-component route lost: dist %g prevEdge %d prevNode %d", dist[1], prevEdge[1], prevNode[1])
	}
}

func TestShortestPathsDistances(t *testing.T) {
	// Line graph 0-1-2-3 with unit weights.
	g := New(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1, 1)
	}
	dist, _, _ := g.ShortestPaths(0)
	for i, want := range []float64{0, 1, 2, 3} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %g, want %g", i, dist[i], want)
		}
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("negative node count", func() { New(-1) })
	g := New(1)
	assertPanics("edge to missing node", func() { g.AddEdge(0, 1, 1) })
	assertPanics("negative weight", func() { g.AddEdge(0, 0, -1) })
	assertPanics("source out of range", func() { g.ShortestPaths(5) })
}

// randomGraph builds a seeded Erdos-Renyi style graph with unit
// weights.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, 1)
			}
		}
	}
	return g
}

// TestPathPropertyValid checks, on random graphs, that every route read
// back from ShortestPaths is a real path: consecutive, edge ids match
// node pairs, and cost equals the sum of traversed weights. A pair is
// unreachable exactly when no edge leaves the source's reached set.
func TestPathPropertyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := randomGraph(r, n, 0.4)
		src, dst := r.Intn(n), r.Intn(n)
		nodes, edges, cost, ok := pathTo(g, src, dst)
		if !ok {
			dist, _, _ := g.ShortestPaths(src)
			for _, e := range g.Edges {
				if math.IsInf(dist[e.U], 1) != math.IsInf(dist[e.V], 1) {
					return false
				}
			}
			return true
		}
		if nodes[0] != src || nodes[len(nodes)-1] != dst {
			return false
		}
		sum := 0.0
		for i, e := range edges {
			ed := g.Edges[e]
			a, b := nodes[i], nodes[i+1]
			if !(ed.U == a && ed.V == b) && !(ed.U == b && ed.V == a) {
				return false
			}
			sum += ed.Weight
		}
		return math.Abs(sum-cost) < 1e-12
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTriangleInequalityProperty: dist(src,x) <= dist(src,y) + w(y,x)
// for every edge (y,x), i.e. Dijkstra relaxation is complete.
func TestTriangleInequalityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := randomGraph(r, n, 0.5)
		dist, _, _ := g.ShortestPaths(0)
		for _, e := range g.Edges {
			if dist[e.U]+e.Weight < dist[e.V]-1e-9 {
				return false
			}
			if dist[e.V]+e.Weight < dist[e.U]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkShortestPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 200, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPaths(0)
	}
}
