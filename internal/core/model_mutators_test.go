package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/platgen"
)

func mutatorProblem(t *testing.T, seed int64, k int) *Problem {
	t.Helper()
	params := platgen.Params{
		K:             k,
		Connectivity:  0.5,
		Heterogeneity: 0.4,
		MeanG:         120,
		MeanBW:        30,
		MeanMaxCon:    6,
	}
	pl, err := platgen.Generate(params, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return NewProblem(pl)
}

// TestModelCapacityMutatorsMatchRebuild: after SetSpeed/SetGateway/
// SetLinkBudget mutations, a warm re-solve of the persistent model
// must reach the same optimum as a model built fresh on an
// equivalently modified platform (LP optima are unique in value).
func TestModelCapacityMutatorsMatchRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pr := mutatorProblem(t, seed, 6)
		for _, obj := range []Objective{SUM, MAXMIN} {
			m, err := pr.NewModel(obj)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := m.Solve(nil); err != nil || !ok {
				t.Fatalf("nominal solve: ok=%v err=%v", ok, err)
			}
			basis := m.Basis()
			rng := rand.New(rand.NewSource(seed * 101))
			for trial := 0; trial < 5; trial++ {
				pl2 := pr.Platform.Clone()
				for k := range pl2.Clusters {
					sf := 0.3 + 1.2*rng.Float64()
					gf := 0.3 + 1.2*rng.Float64()
					pl2.Clusters[k].Speed *= sf
					pl2.Clusters[k].Gateway *= gf
					if err := m.SetSpeed(k, pl2.Clusters[k].Speed); err != nil {
						t.Fatal(err)
					}
					if err := m.SetGateway(k, pl2.Clusters[k].Gateway); err != nil {
						t.Fatal(err)
					}
				}
				for li := range pl2.Links {
					// Shrink or grow budgets, including to zero.
					nb := rng.Intn(pl2.Links[li].MaxConnect + 3)
					pl2.Links[li].MaxConnect = nb
					if err := m.SetLinkBudget(li, float64(nb)); err != nil {
						t.Fatal(err)
					}
				}
				warm, ok, err := m.Solve(basis)
				if err != nil || !ok {
					t.Fatalf("warm solve: ok=%v err=%v", ok, err)
				}
				basis = m.Basis()
				// Routes are hop-count shortest paths, independent of
				// capacities, so the rebuilt model is structure-identical.
				pr2 := &Problem{Platform: pl2, Payoffs: pr.Payoffs}
				cold, err := pr2.NewModel(obj)
				if err != nil {
					t.Fatal(err)
				}
				want, ok, err := cold.Solve(nil)
				if err != nil || !ok {
					t.Fatalf("cold solve: ok=%v err=%v", ok, err)
				}
				if diff := math.Abs(warm - want); diff > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("seed %d %v trial %d: warm %.12g != rebuild %.12g",
						seed, obj, trial, warm, want)
				}
			}
		}
	}
}

// TestSetLinkBudgetRespectsExplicitBounds: lowering a link budget
// tightens the natural cap of routes crossing it without losing the
// caller's explicit SetBounds state, and restoring the budget
// restores the original effective bounds.
func TestSetLinkBudgetRespectsExplicitBounds(t *testing.T) {
	pr := mutatorProblem(t, 2, 5)
	m, err := pr.NewModel(SUM)
	if err != nil {
		t.Fatal(err)
	}
	routes := m.BetaVars()
	if len(routes) == 0 {
		t.Skip("platform has no backbone routes")
	}
	p := routes[0]
	// Pin the route to β = 1 explicitly.
	if err := m.SetBounds(p, BetaBounds{Lb: 1, Ub: 1}); err != nil {
		t.Fatal(err)
	}
	// Zero out one of its links: the pinned lower bound 1 with an
	// effective upper bound 0 must make the model infeasible.
	li := pr.Platform.Route(p.K, p.L).Links[0]
	orig := float64(pr.Platform.Links[li].MaxConnect)
	if err := m.SetLinkBudget(li, 0); err != nil {
		t.Fatal(err)
	}
	_, ok, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("β pinned to 1 across a zero-budget link must be infeasible")
	}
	// Restore the budget: the pin becomes feasible again.
	if err := m.SetLinkBudget(li, orig); err != nil {
		t.Fatal(err)
	}
	if _, ok, err = m.Solve(nil); err != nil || !ok {
		t.Fatalf("restored budget: ok=%v err=%v", ok, err)
	}
	// ResetBounds clears the pin; the default solve succeeds too.
	m.ResetBounds()
	if _, ok, err = m.Solve(nil); err != nil || !ok {
		t.Fatalf("after reset: ok=%v err=%v", ok, err)
	}
}

// TestModelMutatorErrors covers the argument validation of the
// capacity mutators.
func TestModelMutatorErrors(t *testing.T) {
	pr := mutatorProblem(t, 3, 4)
	m, err := pr.NewModel(SUM)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSpeed(-1, 1); err == nil {
		t.Fatal("negative cluster index must fail")
	}
	if err := m.SetSpeed(0, math.Inf(1)); err == nil {
		t.Fatal("infinite speed must fail")
	}
	if err := m.SetGateway(99, 1); err == nil {
		t.Fatal("out-of-range cluster must fail")
	}
	if err := m.SetGateway(0, math.NaN()); err == nil {
		t.Fatal("NaN gateway must fail")
	}
	if err := m.SetLinkBudget(-1, 1); err == nil {
		t.Fatal("negative link index must fail")
	}
	if len(pr.Platform.Links) > 0 {
		if err := m.SetLinkBudget(0, -2); err == nil {
			t.Fatal("negative budget must fail")
		}
	}
}

// lpState is everything a Model lets callers write: every right-hand
// side and variable bound of its lp.Problem, as bits, plus the
// per-route bookkeeping behind them.
type lpState struct {
	rhs, lb, ub                   []uint64
	budget, natural, curLb, curUb []float64
	crossed                       []bool
	numCrossed                    int
}

func stateOf(m *Model) lpState {
	s := lpState{
		budget: m.budget, natural: m.natural, curLb: m.curLb, curUb: m.curUb,
		crossed: m.crossed, numCrossed: m.numCrossed,
	}
	for i := 0; i < m.prob.NumConstraints(); i++ {
		s.rhs = append(s.rhs, math.Float64bits(m.prob.RHS(i)))
	}
	for j := 0; j < m.prob.NumVars(); j++ {
		lb, ub := m.prob.VarBounds(j)
		s.lb = append(s.lb, math.Float64bits(lb))
		s.ub = append(s.ub, math.Float64bits(ub))
	}
	return s
}

// TestRetractLeavesFreshModelState is the exactness argument behind
// retracting a hypothetical by re-injecting the committed platform: the
// model keeps no history, so after any pose — capacities, link budgets,
// boxes, crossed boxes, solved or abandoned half-way — one injection of
// the committed platform plus ResetBounds leaves every RHS and every
// variable bound of the LP bit-equal to a freshly built model's.
func TestRetractLeavesFreshModelState(t *testing.T) {
	for _, obj := range []Objective{SUM, MAXMIN} {
		pr := mutatorProblem(t, 5, 7)
		pl := pr.Platform
		m, err := pr.NewModel(obj)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := pr.NewModel(obj)
		if err != nil {
			t.Fatal(err)
		}
		want := stateOf(fresh)
		if _, ok, err := m.Solve(nil); err != nil || !ok {
			t.Fatalf("nominal solve: ok=%v err=%v", ok, err)
		}
		basis := m.Basis()
		routes := m.BetaVars()
		if len(routes) == 0 || len(pl.Links) == 0 {
			t.Fatal("platform has no backbone routes")
		}

		rng := rand.New(rand.NewSource(17))
		sawCrossed, sawInfeasible := false, false
		for round := 0; round < 25; round++ {
			// Pose: a hypothetical platform, then boxes over default bounds.
			hyp := pl.Clone()
			for k := range hyp.Clusters {
				hyp.Clusters[k].Speed *= 0.3 + 1.2*rng.Float64()
				hyp.Clusters[k].Gateway *= 0.3 + 1.2*rng.Float64()
			}
			for li := range hyp.Links {
				if rng.Intn(2) == 0 {
					hyp.Links[li].MaxConnect = rng.Intn(hyp.Links[li].MaxConnect + 3) // zero included
				}
			}
			if round == 11 {
				// Abandoned half-way: some clusters and the first link
				// written, no boxes, no solve.
				for k := 0; k < pl.K()/2; k++ {
					if err := m.SetSpeed(k, hyp.Clusters[k].Speed); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.SetLinkBudget(0, float64(pl.Links[0].MaxConnect+1)); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := m.Inject(hyp); err != nil {
					t.Fatal(err)
				}
				m.ResetBounds()
				for i := rng.Intn(4); i > 0; i-- {
					p := routes[rng.Intn(len(routes))]
					lb := float64(rng.Intn(3))
					b := BetaBounds{Lb: lb, Ub: lb + float64(rng.Intn(2))}
					if rng.Intn(3) == 0 {
						b = BetaBounds{Lb: 1e6, Ub: -1} // crossed: far above any natural cap
					}
					if err := m.SetBounds(p, b); err != nil {
						t.Fatal(err)
					}
				}
				sawCrossed = sawCrossed || m.numCrossed > 0
				_, feasible, err := m.Solve(basis)
				if err != nil {
					t.Fatal(err)
				}
				sawInfeasible = sawInfeasible || !feasible
			}

			retract(t, m, pl)
			if got := stateOf(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v round %d: model state after retract differs from a fresh model's\n got %+v\nwant %+v", obj, round, got, want)
			}
		}
		if !sawCrossed || !sawInfeasible {
			t.Fatalf("%v: rounds never crossed a box (%v) or went infeasible (%v): the test lost its teeth", obj, sawCrossed, sawInfeasible)
		}
		// And the committed optimum is still there, warm.
		bound, ok, err := m.Solve(basis)
		if err != nil || !ok {
			t.Fatalf("%v: committed re-solve: ok=%v err=%v", obj, ok, err)
		}
		cold, ok, err := fresh.Solve(nil)
		if err != nil || !ok {
			t.Fatalf("%v: fresh solve: ok=%v err=%v", obj, ok, err)
		}
		if math.Abs(bound-cold) > 1e-9*(1+math.Abs(cold)) {
			t.Fatalf("%v: committed optimum %.12g, fresh model %.12g", obj, bound, cold)
		}
	}
}
