// Integration coverage for platforms mixing same-LAN cluster pairs
// (clusters behind one router: empty-path routes with MinBW = +Inf,
// constrained only by their gateways) with ordinary backbone routes —
// the ISSUE 2 regression scenario. Every solver layer must handle
// these routes without ±Inf reaching the LP layer: the rational
// relaxations, all paper heuristics, the exact branch-and-bound
// solver, the §3.2 schedule reconstruction and the §1 adaptability
// loop. The §3.1 multi-application extension's run over this platform
// is heuristics' TestMixedLANMultiApp.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// mixedLANPlatform: clusters a and b share router 0 (a LAN pair),
// cluster c sits across one backbone link.
func mixedLANPlatform(t testing.TB) *platform.Platform {
	t.Helper()
	pl := &platform.Platform{
		Routers: 2,
		Links:   []platform.Link{{U: 0, V: 1, BW: 10, MaxConnect: 5}},
		Clusters: []platform.Cluster{
			{Name: "a", Speed: 100, Gateway: 50, Router: 0},
			{Name: "b", Speed: 80, Gateway: 40, Router: 0},
			{Name: "c", Speed: 60, Gateway: 30, Router: 1},
		},
	}
	if err := pl.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestMixedLANFullStack(t *testing.T) {
	pl := mixedLANPlatform(t)
	pr := core.NewProblem(pl)
	for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
		rel, err := heuristics.Relax(pr, obj)
		if err != nil {
			t.Fatalf("Relax(%v): %v", obj, err)
		}
		for _, name := range heuristics.All {
			rng := rand.New(rand.NewSource(7))
			res, err := heuristics.Run(name, pr, rel, rng, 0)
			if err != nil {
				t.Errorf("%s(%v): %v", name, obj, err)
				continue
			}
			if err := pr.CheckAllocation(res.Alloc, core.DefaultTol); err != nil {
				t.Errorf("%s(%v): invalid allocation: %v", name, obj, err)
			}
		}
		if _, err := heuristics.Run(heuristics.NameBnB, pr, rel, nil, 2000); err != nil {
			t.Errorf("BnB(%v): %v", obj, err)
		}
	}
	rel, err := heuristics.Relax(pr, core.SUM)
	if err != nil {
		t.Fatal(err)
	}
	res, err := heuristics.Run(heuristics.NameG, pr, rel, nil, 0)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if _, err := schedule.Build(pr, res.Alloc, 1000); err != nil {
		t.Errorf("schedule.Build: %v", err)
	}
}

// TestMixedLANAdaptEpochs runs the §1 re-optimizing loop over the mixed
// platform: one core.Model, each epoch's perturbed capacities injected
// into it (the same-LAN routes carry no β and no link row) and LPRG
// re-solved warm from the previous basis. No ±Inf may reach the LP
// layer, and every epoch must produce a useful allocation that is valid
// on its platform.
func TestMixedLANAdaptEpochs(t *testing.T) {
	pl := mixedLANPlatform(t)
	pr := core.NewProblem(pl)
	load := adapt.UniformLoadModel{K: 3, Min: 0.5, Max: 1, Seed: 1, Links: len(pl.Links), LinkMin: 0.5, LinkMax: 1}
	m, err := pr.NewModel(core.SUM)
	if err != nil {
		t.Fatal(err)
	}
	var basis *lp.Basis
	for e := 0; e < 6; e++ {
		epl, err := load.Epoch(e).Apply(pl)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Inject(epl); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		epr := &core.Problem{Platform: epl, Payoffs: pr.Payoffs}
		rel, err := heuristics.RelaxOn(m, basis)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		res, err := heuristics.Run(heuristics.NameLPRG, epr, rel, nil, 0)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		alloc, next := res.Alloc, rel.Root
		if err := epr.CheckAllocation(alloc, core.DefaultTol); err != nil {
			t.Errorf("epoch %d: invalid allocation: %v", e, err)
		}
		if v := epr.Objective(core.SUM, alloc); v <= 0 {
			t.Errorf("epoch %d: nonpositive objective %g", e, v)
		}
		basis = next
	}
}
