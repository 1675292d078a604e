// Multiapp: the paper's motivating scenario — many divisible-load
// applications competing for a shared Grid (§1). On a 12-cluster
// random platform, compare every heuristic of §5 under both
// objectives, then show how payoff factors (§3.1) shift resources
// between applications under MAX-MIN fairness.
//
// Run with: go run ./examples/multiapp
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platgen"
)

func main() {
	params := platgen.Params{
		K:             12,
		Connectivity:  0.3,
		Heterogeneity: 0.6,
		MeanG:         150,
		MeanBW:        30,
		MeanMaxCon:    8,
	}
	pl, err := platgen.Generate(params, rand.New(rand.NewSource(2026)))
	if err != nil {
		log.Fatal(err)
	}
	pr := core.NewProblem(pl)
	fmt.Printf("random platform: K=%d, %d backbone links\n\n", pr.K(), len(pl.Links))

	// Compare the paper's heuristics against the LP upper bound. LPR,
	// LPRG and LPRR start from that one relaxation, so their time counts
	// its solve, as the paper's Figure 7 does.
	for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
		start := time.Now()
		rel, err := heuristics.Relax(pr, obj)
		if err != nil {
			log.Fatal(err)
		}
		lpTime := time.Since(start)
		ub := rel.Objective
		fmt.Printf("%s: LP upper bound %.1f\n", obj, ub)
		rng := rand.New(rand.NewSource(7))
		for _, name := range heuristics.All {
			r, err := heuristics.Run(name, pr, rel, rng, 0)
			if err != nil {
				log.Fatal(err)
			}
			if name.ReadsRelaxation() {
				r.Elapsed += lpTime
			}
			fmt.Printf("  %-8s value %8.1f  ratio %.3f  time %s\n", name, r.Value, r.Value/ub, r.Elapsed.Round(1000))
		}
		fmt.Println()
	}

	// Priorities: boost application 0 by raising its payoff. Under
	// MAXMIN, a payoff of 2 means one unit of app 0 is worth two
	// units of anyone else, so fairness gives it *less* raw load for
	// the same payoff level.
	fmt.Println("payoff study (MAXMIN, LPRG): raising app 0's payoff")
	for _, pi0 := range []float64{1, 2, 4} {
		pr.Payoffs[0] = pi0
		rel, err := heuristics.Relax(pr, core.MAXMIN)
		if err != nil {
			log.Fatal(err)
		}
		alloc := heuristics.LPRG(pr, rel.RelaxedSolution)
		minPayoff := pr.Objective(core.MAXMIN, alloc)
		fmt.Printf("  π_0=%.0f: app0 load %7.2f, min payoff %7.2f\n",
			pi0, alloc.AppThroughput(0), minPayoff)
	}
}
