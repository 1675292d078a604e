// Clusterequiv: the §2 modeling step made concrete. Each institution
// is really a tree of machines behind its front-end; divisible load
// theory collapses it to the single equivalent speed s_k the platform
// model needs ("C^k_master and the leaf processors are together
// equivalent to a single processor"). This example builds three
// heterogeneous institutions from their internal topologies, derives
// their equivalent speeds with internal/dlt, assembles the paper's
// platform from them, and schedules two competing applications.
//
// Run with: go run ./examples/clusterequiv
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dlt"
	"repro/internal/heuristics"
	"repro/internal/platform"
)

func main() {
	// Institution A: a front-end plus a flat rack of 8 identical
	// nodes (speed 12 each) on a gigabit-class local link (bw 40).
	rack := &dlt.Tree{Speed: 4}
	for i := 0; i < 8; i++ {
		rack.Children = append(rack.Children, dlt.TreeEdge{BW: 40, Child: &dlt.Tree{Speed: 12}})
	}

	// Institution B: two-level tree — the front-end feeds two group
	// switches, each serving 4 slower nodes.
	group := func() *dlt.Tree {
		g := &dlt.Tree{Speed: 0}
		for i := 0; i < 4; i++ {
			g.Children = append(g.Children, dlt.TreeEdge{BW: 15, Child: &dlt.Tree{Speed: 6}})
		}
		return g
	}
	instB := &dlt.Tree{Speed: 2, Children: []dlt.TreeEdge{
		{BW: 30, Child: group()},
		{BW: 30, Child: group()},
	}}

	// Institution C: a single fat SMP node.
	instC := &dlt.Tree{Speed: 70}

	names := []string{"rackA", "treeB", "smpC"}
	trees := []*dlt.Tree{rack, instB, instC}
	speeds := make([]float64, len(trees))
	fmt.Println("equivalent speeds from divisible load theory (paper §2):")
	for i, tr := range trees {
		s, err := tr.EquivalentSpeed()
		if err != nil {
			log.Fatal(err)
		}
		speeds[i] = s
		fmt.Printf("  %-6s s_k = %.1f load units/time unit\n", names[i], s)
	}

	// Assemble the wide-area platform of §2 from the collapsed
	// clusters: routers in a line, modest backbone budgets.
	pl := &platform.Platform{
		Routers: 3,
		Links: []platform.Link{
			{U: 0, V: 1, BW: 8, MaxConnect: 3},
			{U: 1, V: 2, BW: 12, MaxConnect: 3},
		},
	}
	for i, n := range names {
		pl.Clusters = append(pl.Clusters, platform.Cluster{
			Name: n, Speed: speeds[i], Gateway: 25, Router: i,
		})
	}
	if err := pl.ComputeRoutes(); err != nil {
		log.Fatal(err)
	}

	// Two applications compete: one at the rack, one at the SMP; the
	// tree institution only lends capacity (payoff 0).
	pr := core.NewProblem(pl)
	pr.Payoffs = []float64{1, 0, 1}
	rel, err := heuristics.Relax(pr, core.MAXMIN)
	if err != nil {
		log.Fatal(err)
	}
	alloc := heuristics.LPRG(pr, rel.RelaxedSolution)
	fmt.Printf("\nMAXMIN schedule (LPRG): min payoff %.2f, LP bound %.2f\n",
		pr.Objective(core.MAXMIN, alloc), rel.Objective)
	for k := 0; k < pr.K(); k++ {
		fmt.Printf("  %-6s runs %.1f units/time", names[k], alloc.AppThroughput(k))
		for l := 0; l < pr.K(); l++ {
			if l != k && alloc.Alpha[k][l] > 1e-9 {
				fmt.Printf(" (%.1f offloaded to %s over %d conns)", alloc.Alpha[k][l], names[l], alloc.Beta[k][l])
			}
		}
		fmt.Println()
	}
}
