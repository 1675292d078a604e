// Package graph provides a small undirected multigraph with weighted
// edges and the single-source shortest paths from which
// platform.ComputeRoutes builds the fixed inter-cluster routing tables
// of the platform model (paper §2: the ordered list L_{k,l} of backbone
// links between two cluster routers).
package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// Graph is an undirected multigraph over nodes 0..N-1. Edges carry an
// integer identifier (their index in Edges) so that parallel edges and
// edge-indexed attributes (bandwidth, connection budgets) are
// supported.
type Graph struct {
	n     int
	Edges []Edge
	adj   [][]halfEdge // adjacency: for each node, incident half-edges
}

// Edge is an undirected edge between U and V with a traversal Weight
// (used as the routing metric; typically 1 for hop-count routing).
type Edge struct {
	U, V   int
	Weight float64
}

type halfEdge struct {
	to   int // neighbour node
	edge int // index into Edges
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]halfEdge, n)}
}

// AddEdge inserts an undirected edge {u,v} with the given weight and
// returns its edge index. Parallel edges and self-loops are allowed
// (self-loops are never part of a shortest path between distinct
// nodes).
func (g *Graph) AddEdge(u, v int, weight float64) int {
	g.checkNode(u)
	g.checkNode(v)
	if weight < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %g", weight))
	}
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{U: u, V: v, Weight: weight})
	g.adj[u] = append(g.adj[u], halfEdge{to: v, edge: id})
	if u != v {
		g.adj[v] = append(g.adj[v], halfEdge{to: u, edge: id})
	}
	return id
}

func (g *Graph) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// ShortestPaths computes shortest paths from src to every node using
// Dijkstra's algorithm on edge weights. It returns, for each node, the
// total distance (math.Inf(1) if unreachable) and the predecessor
// half-edge used to reach it (-1 edge index when unreached or src).
func (g *Graph) ShortestPaths(src int) (dist []float64, prevEdge []int, prevNode []int) {
	g.checkNode(src)
	dist = make([]float64, g.n)
	prevEdge = make([]int, g.n)
	prevNode = make([]int, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
		prevNode[i] = -1
	}
	dist[src] = 0
	pq := &nodeHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, h := range g.adj[it.node] {
			nd := it.dist + g.Edges[h.edge].Weight
			if nd < dist[h.to] {
				dist[h.to] = nd
				prevEdge[h.to] = h.edge
				prevNode[h.to] = it.node
				heap.Push(pq, nodeItem{node: h.to, dist: nd})
			}
		}
	}
	return dist, prevEdge, prevNode
}

type nodeItem struct {
	node int
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
