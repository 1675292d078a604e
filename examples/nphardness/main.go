// Nphardness: the §4 reduction made executable. Build the
// STEADY-STATE-DIVISIBLE-LOAD instance corresponding to a
// MAXIMUM-INDEPENDENT-SET question on a 5-vertex graph, verify
// Lemma 1 link sharing, and show that the exact optimum throughput
// equals the independent-set number — while the LP relaxation
// overshoots it (the integrality gap that powers Theorem 1).
//
// Run with: go run ./examples/nphardness
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/reduction"
)

func main() {
	// A 5-cycle: maximum independent set size 2.
	g := reduction.Graph{
		N:     5,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}},
	}
	mis, witness, err := reduction.MaxIndependentSetBrute(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: 5-cycle, MIS size %d (witness %v)\n", mis, witness)

	inst, err := reduction.Build(g)
	if err != nil {
		log.Fatal(err)
	}
	pl := inst.Problem.Platform
	fmt.Printf("reduction instance: %d clusters, %d routers, %d unit links\n",
		inst.Problem.K(), pl.Routers, len(pl.Links))

	// Lemma 1: routes L_{0,i} and L_{0,j} share a backbone link iff
	// (V_i, V_j) is an edge of the cycle.
	fmt.Println("\nLemma 1 check (s = routes share a link, . = disjoint):")
	for i := 0; i < g.N; i++ {
		fmt.Printf("  V%d: ", i)
		for j := 0; j < g.N; j++ {
			switch {
			case i == j:
				fmt.Print("- ")
			case inst.RoutesShareLink(i, j):
				fmt.Print("s ")
			default:
				fmt.Print(". ")
			}
		}
		fmt.Println()
	}

	// The valid allocation derived from the independent set.
	a := inst.IndependentSetAllocation(witness)
	if err := inst.Problem.CheckAllocation(a, core.DefaultTol); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nindependent-set allocation: throughput %.0f (valid)\n", a.AppThroughput(0))

	// LP relaxation vs exact optimum: the relaxation splits
	// connections fractionally across the shared unit links.
	rel, err := heuristics.Relax(inst.Problem, core.SUM)
	if err != nil {
		log.Fatal(err)
	}
	ub := rel.Objective
	exact, err := heuristics.Run(heuristics.NameBnB, inst.Problem, rel, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP relaxation bound: %.3f\n", ub)
	fmt.Printf("exact integer optimum: %.3f  (equals MIS size %d — Theorem 1)\n", exact.Value, mis)
}
