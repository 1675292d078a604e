package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	. "repro/internal/lp"
	"repro/internal/lp/lptest"
)

// solvers are the two backends a Problem runs through: the production
// revised simplex, cold, and the lptest dense-tableau oracle.
var solvers = []struct {
	name  string
	solve func(*Problem) (Solution, error)
}{{"revised", (*Problem).Solve}, {"dense", lptest.DenseSolver{}.Solve}}

// checkOracle solves p with the lptest dense-tableau oracle and
// requires got — a Revised answer for the same p — to reach the same
// verdict and, when optimal, the same objective to 1e-9.
func checkOracle(t *testing.T, p *Problem, got Solution, label string) {
	t.Helper()
	checkOracleWithin(t, p, got, label, func(want Solution) float64 { return ObjTol(want.Objective) })
}

// checkOracleWithin is checkOracle with the objective tolerance tol
// gives for the oracle's optimum.
func checkOracleWithin(t *testing.T, p *Problem, got Solution, label string, tol func(want Solution) float64) {
	t.Helper()
	want, err := lptest.DenseSolver{}.Solve(p)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, oracle %v", label, got.Status, want.Status)
	}
	if got.Status != Optimal {
		return
	}
	if d, tol := math.Abs(got.Objective-want.Objective), tol(want); d > tol {
		t.Fatalf("%s: objective %.12g, oracle %.12g (diff %g > %g)", label, got.Objective, want.Objective, d, tol)
	}
}

// TestRevisedMatchesOracle is the solver's contract gate: over random
// bounded programs (feasible by construction, half of them degenerate)
// and random RHS+bound mutation sequences (which may make them
// infeasible), every Revised answer must match the oracle's. The cases
// cover each way the layers above reach a solve:
//
//   - cold: a fresh instance, two-phase solve;
//   - warm: one instance restarted from its own previous basis;
//   - round-trip: three instances over one problem, each restarted from
//     the basis a *different* instance produced last step, so a Basis
//     must carry across instances with different factorization history;
//   - export-import: as round-trip, with every basis additionally
//     passed through View → ImportBasis, the serialized form the
//     cluster ships between replicas;
//   - fork: every step a context is forked off the warm instance,
//     mutated privately and solved — fork == a serial solve of the
//     same program, as judged by the oracle.
func TestRevisedMatchesOracle(t *testing.T) {
	same := func(b *Basis) *Basis { return b }
	exportImport := func(b *Basis) *Basis { return ImportBasis(b.View()) }
	cases := []struct {
		name         string
		seedBase     int64
		seeds, steps int
		instances    int
		via          func(*Basis) *Basis
		fork         bool
	}{
		{"cold", 18000, 300, 0, 1, same, false},
		{"warm", 19000, 160, 8, 1, same, false},
		{"round-trip", 21000, 40, 6, 3, same, false},
		{"export-import", 27000, 60, 4, 2, exportImport, false},
		{"fork", 31000, 60, 4, 1, same, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < int64(tc.seeds); seed++ {
				rng := rand.New(rand.NewSource(tc.seedBase + seed))
				p := RandomBoundedProblem(rng, seed%2 == 0)
				rs := make([]*Revised, tc.instances)
				bases := make([]*Basis, tc.instances)
				for k := range rs {
					rs[k] = NewRevised(p)
					sol, err := rs[k].SolveFrom(nil)
					if err != nil {
						t.Fatalf("seed %d instance %d: cold: %v", seed, k, err)
					}
					bases[k] = rs[k].Basis()
					checkOracle(t, p, sol, fmt.Sprintf("seed %d instance %d cold", seed, k))
				}
				for step := 0; step < tc.steps; step++ {
					MutateProblem(rng, p)
					prev := append([]*Basis(nil), bases...)
					for k, r := range rs {
						from := tc.via(prev[(k+1)%len(prev)])
						sol, err := r.SolveFrom(from)
						if err != nil {
							t.Fatalf("seed %d step %d instance %d: warm: %v", seed, step, k, err)
						}
						bases[k] = r.Basis()
						checkOracle(t, p, sol, fmt.Sprintf("seed %d step %d instance %d", seed, step, k))
					}
					if !tc.fork {
						continue
					}
					f, err := rs[0].Fork()
					if err != nil {
						t.Fatalf("seed %d step %d: fork: %v", seed, step, err)
					}
					MutateProblem(rng, f.Problem())
					sol, err := f.SolveFrom(bases[0])
					if err != nil {
						t.Fatalf("seed %d step %d: fork solve: %v", seed, step, err)
					}
					checkOracle(t, f.Problem(), sol, fmt.Sprintf("seed %d step %d fork", seed, step))
				}
			}
		})
	}
}

// TestStaleBasisDegradesToColdFallback pins the warm-restart safety
// contract: when the pivot budget is forced so low that no dual restart
// can finish, every solve must degrade into the cold fallback — counted
// as such — and still return the answer the oracle produces. A stale
// basis may cost time, never correctness.
func TestStaleBasisDegradesToColdFallback(t *testing.T) {
	fallbacks := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(27000 + seed))
		p := RandomBoundedProblem(rng, true)
		r := NewRevised(p)
		r.SetBudgetOverride(1) // no useful dual restart fits in one pivot
		if _, err := r.SolveFrom(nil); err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		bas := r.Basis()
		for step := 0; step < 5; step++ {
			// Large mutations guarantee real dual work, so the budget of
			// one pivot cannot complete a restart that needs any.
			for i := 0; i < p.NumConstraints(); i++ {
				p.SetRHS(i, p.RHS(i)+rng.NormFloat64()*20)
			}
			sol, err := r.SolveFrom(bas)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			bas = r.Basis()
			checkOracle(t, p, sol, fmt.Sprintf("seed %d step %d", seed, step))
		}
		fallbacks += r.Stats().ColdFallbacks
	}
	// A mutation that happens to leave the basis primal feasible needs
	// no dual pivot and legitimately avoids the fallback; across 40
	// seeds of ±20 RHS shocks, restarts that DO need work must have
	// tripped the one-pivot budget into the cold path many times.
	if fallbacks < 20 {
		t.Fatalf("budget of 1 pivot produced only %d cold fallbacks across all seeds", fallbacks)
	}
}

// TestKnownAnswers runs hand-checked programs through the revised
// simplex and through the oracle: both must report the stated verdict,
// objective and (where given) point — which also keeps the oracle
// itself honest.
func TestKnownAnswers(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		build  func() *Problem
		status Status
		obj    float64
		x      []float64 // nil: not checked
	}{
		{"infeasible rows", func() *Problem {
			p := New(1)
			p.SetObjective(0, 1)
			p.AddConstraint([]Term{{Var: 0, Coeff: 1}}, LE, 1)
			p.AddConstraint([]Term{{Var: 0, Coeff: 1}}, GE, 2)
			return p
		}, Infeasible, 0, nil},
		{"unbounded", func() *Problem {
			p := New(2)
			p.SetObjective(0, 1)
			p.AddConstraint([]Term{{Var: 1, Coeff: 1}}, LE, 5)
			return p
		}, Unbounded, 0, nil},
		{"fixed variable", func() *Problem {
			// maximize 2x + y s.t. x + y <= 10, x fixed at 3: x=3, y=7.
			p := New(2)
			p.SetObjective(0, 2)
			p.SetObjective(1, 1)
			p.AddConstraint([]Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, LE, 10)
			p.SetVarBounds(0, 3, 3)
			return p
		}, Optimal, 13, []float64{3, 7}},
		{"upper bounds without rows", func() *Problem {
			// Both variables optimal at their native upper bound; the
			// single row is slack there, so the optimum is reached by
			// bound flips.
			p := New(2)
			p.SetObjective(0, 1)
			p.SetObjective(1, 1)
			p.AddConstraint([]Term{{Var: 0, Coeff: 1}, {Var: 1, Coeff: 1}}, LE, 100)
			p.SetVarBounds(0, 0, 2)
			p.SetVarBounds(1, 1, 3)
			return p
		}, Optimal, 5, []float64{2, 3}},
		{"infinite upper bound stays unbounded", func() *Problem {
			// ub=+Inf is the default and must keep genuinely unbounded
			// programs unbounded (the same-LAN MinBW=+Inf route shape).
			p := New(2)
			p.SetObjective(0, 1)
			p.AddConstraint([]Term{{Var: 1, Coeff: 1}}, LE, 5)
			p.SetVarBounds(0, 1.5, inf)
			return p
		}, Unbounded, 0, nil},
		{"capped objective variable", func() *Problem {
			p := New(2)
			p.SetObjective(0, 1)
			p.AddConstraint([]Term{{Var: 1, Coeff: 1}}, LE, 5)
			p.SetVarBounds(0, 1.5, 40)
			return p
		}, Optimal, 40, nil},
		{"lower bound forces infeasible", func() *Problem {
			// lb pushes the variable past a row cap.
			p := New(1)
			p.SetObjective(0, 1)
			p.AddConstraint([]Term{{Var: 0, Coeff: 1}}, LE, 2)
			p.SetVarBounds(0, 3, inf)
			return p
		}, Infeasible, 0, nil},
	}
	for _, tc := range cases {
		for _, s := range solvers {
			sol, err := s.solve(tc.build())
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, s.name, err)
			}
			if sol.Status != tc.status {
				t.Fatalf("%s: %s: status %v, want %v", tc.name, s.name, sol.Status, tc.status)
			}
			if sol.Status != Optimal {
				continue
			}
			if !Approx(sol.Objective, tc.obj, 1e-9) {
				t.Fatalf("%s: %s: objective %g, want %g", tc.name, s.name, sol.Objective, tc.obj)
			}
			for j, want := range tc.x {
				if !Approx(sol.X[j], want, 1e-9) {
					t.Fatalf("%s: %s: x[%d] = %g, want %g", tc.name, s.name, j, sol.X[j], want)
				}
			}
		}
	}
}
