// Adaptive: the §1 adaptability claim — because steady-state
// schedules are periodic, the scheduler can re-run the optimization
// between periods and react to resource availability changes. This
// example perturbs a network-bound platform epoch by epoch (a
// non-dedicated Grid whose gateways and backbone connection budgets
// are squeezed by external traffic, then desktop-grid speeds following
// a day cycle) and compares re-optimizing every epoch against a static
// schedule computed once on the nominal platform and throttled by the
// network thereafter (adapt.Throttle).
//
// The re-optimizing loop is the one the scheduling service's epoch
// commit runs: one core.Model for the whole run, each epoch's platform
// injected into it (core.Model.Inject: right-hand sides and bounds
// only, no rebuild), and the solver restarted from the previous
// epoch's basis.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/platgen"
)

const epochs = 12

// solve computes an epoch's allocation with heuristic name on the
// model, which already holds epr's capacities, as a session's commit
// does, warm from the previous epoch's basis; it returns the next one.
func solve(name heuristics.Name, m *core.Model, epr *core.Problem, from *lp.Basis) (*core.Allocation, *lp.Basis, error) {
	rel, err := heuristics.RelaxOn(m, from)
	if err != nil {
		return nil, nil, err
	}
	res, err := heuristics.Run(name, epr, rel, nil, 0)
	return res.Alloc, rel.Root, err
}

func main() {
	// Tight connection budgets and bandwidths, non-uniform payoffs: the
	// network binds, so how the load is routed matters. (On a
	// compute-bound platform a squeezed gateway rarely binds, and
	// re-optimizing gains nothing measurable.)
	params := platgen.Params{K: 8, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5}
	pl, err := platgen.Generate(params, rand.New(rand.NewSource(11)))
	if err != nil {
		log.Fatal(err)
	}
	pr := core.NewProblem(pl)
	for k := range pr.Payoffs {
		pr.Payoffs[k] = float64(1 + k%3)
	}

	// External traffic squeezes every gateway to 30–100 % and every
	// link budget to 50–100 % of nominal, drawn independently each epoch.
	load := adapt.UniformLoadModel{K: pr.K(), Min: 0.3, Max: 1.0, Seed: 99,
		Links: len(pl.Links), LinkMin: 0.5, LinkMax: 1.0}
	for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
		if err := run("gateway and link load, LPRG", pr, load, obj, heuristics.NameLPRG); err != nil {
			log.Fatal(err)
		}
	}
	// Desktop-grid speeds between 40 % and 100 % over a six-epoch day,
	// re-optimized exactly.
	diurnal := adapt.DiurnalModel{K: pr.K(), Min: 0.4, Max: 1.0, Period: 6}
	if err := run("diurnal speeds, branch-and-bound", pr, diurnal, core.SUM, heuristics.NameBnB); err != nil {
		log.Fatal(err)
	}
}

// run drives the epoch loop and prints each epoch's objective for the
// re-optimized allocation and for the throttled static one.
func run(title string, pr *core.Problem, load adapt.Model, obj core.Objective, name heuristics.Name) error {
	m, err := pr.NewModel(obj)
	if err != nil {
		return err
	}
	staticAlloc, basis, err := solve(name, m, pr, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%s, %v\nepoch  adaptive    static\n", title, obj)
	var sumAdaptive, sumStatic float64
	for e := 0; e < epochs; e++ {
		epl, err := load.Epoch(e).Apply(pr.Platform)
		if err != nil {
			return err
		}
		if err := m.Inject(epl); err != nil {
			return err
		}
		epr := &core.Problem{Platform: epl, Payoffs: pr.Payoffs}
		alloc, next, err := solve(name, m, epr, basis)
		if err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		if err := epr.CheckAllocation(alloc, core.DefaultTol); err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		basis = next
		adaptive := epr.Objective(obj, alloc)
		static := epr.Objective(obj, adapt.Throttle(epr, staticAlloc))
		fmt.Printf("%5d  %8.2f  %8.2f\n", e, adaptive, static)
		sumAdaptive += adaptive
		sumStatic += static
	}
	fmt.Printf("mean over %d epochs: adaptive %.2f, static %.2f (%+.1f%%)\n\n",
		epochs, sumAdaptive/epochs, sumStatic/epochs, 100*(sumAdaptive/sumStatic-1))
	return nil
}
