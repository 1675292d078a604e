// Quickstart: build a small three-cluster Grid platform by hand,
// solve the steady-state multi-application scheduling problem with
// the LPRG heuristic, reconstruct the periodic schedule of §3.2, and
// execute it on the flow-level network simulator.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/schedule"
)

func main() {
	// Three institutions: a fast cluster, a slow one, and a
	// well-connected mid-size one. Routers 0-1-2 form a line, so
	// traffic between clusters 0 and 2 crosses both backbone links.
	pl := &platform.Platform{
		Routers: 3,
		Links: []platform.Link{
			{U: 0, V: 1, BW: 10, MaxConnect: 4}, // each connection gets 10, at most 4 connections
			{U: 1, V: 2, BW: 20, MaxConnect: 2},
		},
		Clusters: []platform.Cluster{
			{Name: "fast", Speed: 200, Gateway: 60, Router: 0},
			{Name: "slow", Speed: 40, Gateway: 80, Router: 1},
			{Name: "mid", Speed: 100, Gateway: 100, Router: 2},
		},
	}
	if err := pl.ComputeRoutes(); err != nil {
		log.Fatal(err)
	}

	// One divisible application originates at each cluster; the slow
	// cluster's application is twice as important.
	pr := core.NewProblem(pl)
	pr.Payoffs = []float64{1, 2, 1}

	// Solve for MAX-MIN fairness (Equation 6) and compare with the
	// LP upper bound.
	rel, err := heuristics.Relax(pr, core.MAXMIN)
	if err != nil {
		log.Fatal(err)
	}
	alloc := heuristics.LPRG(pr, rel.RelaxedSolution)
	if err := pr.CheckAllocation(alloc, core.DefaultTol); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MAXMIN value: %.2f (LP upper bound %.2f)\n", pr.Objective(core.MAXMIN, alloc), rel.Objective)
	for k := 0; k < pr.K(); k++ {
		fmt.Printf("  %-5s throughput %.2f load/time-unit (payoff %.0f)\n",
			pl.Clusters[k].Name, alloc.AppThroughput(k), pr.Payoffs[k])
	}

	// Reconstruct the §3.2 periodic schedule ...
	s, err := schedule.Build(pr, alloc, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperiodic schedule, period = %.0f time units:\n", s.Period)
	for k := 0; k < pr.K(); k++ {
		for l := 0; l < pr.K(); l++ {
			if s.Compute[k][l] == 0 {
				continue
			}
			where := "locally"
			if k != l {
				where = fmt.Sprintf("on %s over %d connection(s)", pl.Clusters[l].Name, s.Beta[k][l])
			}
			fmt.Printf("  app %-5s computes %6d units %s\n", pl.Clusters[k].Name, s.Compute[k][l], where)
		}
	}

	// ... and execute it on the simulated network.
	rep, err := netsim.ExecuteSchedule(pr, s, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated 200 periods (paced flows): fits period = %v\n", rep.FitsPeriod)
	for k := 0; k < pr.K(); k++ {
		fmt.Printf("  %-5s achieved %.2f vs predicted %.2f\n",
			pl.Clusters[k].Name, rep.Achieved[k], rep.Predicted[k])
	}
}
