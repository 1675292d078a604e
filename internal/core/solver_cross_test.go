package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/lp/lptest"
	"repro/internal/platform"
)

// solveOnce cold-solves the model's current bound set once with solve
// and reads the optimum back; a lower bound over its natural cap is
// infeasible without a solve, as in Solve.
func (m *Model) solveOnce(solve func(*lp.Problem) (lp.Solution, error)) (*RelaxedSolution, bool, error) {
	if m.numCrossed > 0 {
		return nil, false, nil
	}
	sol, err := solve(m.prob)
	if err != nil {
		return nil, false, err
	}
	return m.extract(sol)
}

// randomPlatformProblem draws a platgen-style platform directly (the
// platgen package imports core's sibling platform package, so the
// generator is inlined here to avoid an import cycle in tests):
// K clusters on their own routers, random links, tight budgets so the
// relaxations are network-bound and degenerate ties are common.
func randomPlatformProblem(t *testing.T, rng *rand.Rand, k int) *Problem {
	t.Helper()
	pl := &platform.Platform{Routers: k}
	for i := 0; i < k; i++ {
		pl.Clusters = append(pl.Clusters, platform.Cluster{
			Name:    "C",
			Speed:   100,
			Gateway: 50 + 400*rng.Float64(),
			Router:  i,
		})
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if rng.Float64() >= 0.6 {
				continue
			}
			pl.Links = append(pl.Links, platform.Link{
				U:          i,
				V:          j,
				BW:         5 + 25*rng.Float64(),
				MaxConnect: 1 + rng.Intn(6),
			})
		}
	}
	if err := pl.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	pr := NewProblem(pl)
	for i := range pr.Payoffs {
		pr.Payoffs[i] = float64(1 + rng.Intn(3))
	}
	return pr
}

// TestRelaxedMatchesOracle checks the α-space encoding's one-shot
// Problem.Solve path: on randomized platforms the reduced relaxation
// (relaxed, a cold revised-simplex solve) must produce the same objective as the lptest
// dense-tableau oracle run on the explicit α/β model of the same
// platform — an independent solver on an independent formulation.
func TestRelaxedMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pr := randomPlatformProblem(t, rng, 4+rng.Intn(5))
		for _, obj := range []Objective{SUM, MAXMIN} {
			rel, ok, err := relaxed(pr.alphaLayout(), obj)
			if err != nil || !ok {
				t.Fatalf("seed %d: relaxed: ok=%v err=%v", seed, ok, err)
			}
			m, err := pr.NewModel(obj)
			if err != nil {
				t.Fatal(err)
			}
			ref, ok, err := m.solveOnce(lptest.DenseSolver{}.Solve)
			if err != nil || !ok {
				t.Fatalf("seed %d: oracle: ok=%v err=%v", seed, ok, err)
			}
			if math.Abs(ref.Objective-rel.Objective) > 1e-9*(1+math.Abs(ref.Objective)) {
				t.Fatalf("seed %d %v: oracle %.12g, relaxed %.12g", seed, obj, ref.Objective, rel.Objective)
			}
		}
	}
}

// TestModelWarmMatchesOracle is the model layer's solver contract: over
// randomized mutation sequences a warm-started re-solve must agree —
// on feasibility and, when feasible, on the objective to 1e-9 — with a
// cold revised solve and with the lptest oracle on the same state. The
// cases are the access patterns of the layers above: branch-and-bound
// branching, whole per-node bound sets, LPRR-style pins mixed with
// branches and resets (lower bounds may cross the natural cap, which
// the model reports infeasible without consulting the LP), and link-
// budget drift moving the natural caps under persisting explicit bounds.
// Each warm optimum must also satisfy (7e) route by route, α against
// the β̃ extracted beside it.
func TestModelWarmMatchesOracle(t *testing.T) {
	type mutator func(rng *rand.Rand, m *Model, pr *Problem, last *RelaxedSolution, lastOK bool)
	branch := func() mutator {
		var prev *Pair
		return func(rng *rand.Rand, m *Model, _ *Problem, last *RelaxedSolution, lastOK bool) {
			if !lastOK && prev != nil {
				// The previous branch emptied the feasible set: undo it
				// and branch elsewhere.
				if err := m.SetBounds(*prev, BetaBounds{Lb: 0, Ub: -1}); err != nil {
					t.Fatal(err)
				}
			}
			betas := m.BetaVars()
			p := betas[rng.Intn(len(betas))]
			v := math.Floor(last.Beta[p.K][p.L])
			b := BetaBounds{Lb: v + 1, Ub: -1}
			if rng.Float64() < 0.5 {
				b = BetaBounds{Lb: 0, Ub: v}
			}
			if err := m.SetBounds(p, b); err != nil {
				t.Fatal(err)
			}
			prev = &p
		}
	}
	boundSet := func() mutator {
		return func(rng *rand.Rand, m *Model, _ *Problem, _ *RelaxedSolution, _ bool) {
			m.ResetBounds()
			for _, p := range m.BetaVars() {
				var b BetaBounds
				switch rng.Intn(3) {
				case 0:
					b = BetaBounds{Lb: float64(rng.Intn(2)), Ub: float64(1 + rng.Intn(3))}
				case 1:
					b = BetaBounds{Lb: float64(rng.Intn(2)), Ub: -1}
				default:
					continue
				}
				if err := m.SetBounds(p, b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pinBranchReset := func() mutator {
		return func(rng *rand.Rand, m *Model, _ *Problem, _ *RelaxedSolution, _ bool) {
			betas := m.BetaVars()
			p := betas[rng.Intn(len(betas))]
			var b BetaBounds
			switch rng.Intn(4) {
			case 0: // pin
				v := float64(rng.Intn(4))
				b = BetaBounds{Lb: v, Ub: v}
			case 1: // branch down
				b = BetaBounds{Lb: 0, Ub: float64(rng.Intn(3))}
			case 2: // branch up (may cross the natural cap → infeasible)
				b = BetaBounds{Lb: float64(1 + rng.Intn(5)), Ub: -1}
			case 3: // reset
				b = BetaBounds{Lb: 0, Ub: -1}
			}
			if err := m.SetBounds(p, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	linkBudgets := func() mutator {
		return func(rng *rand.Rand, m *Model, pr *Problem, _ *RelaxedSolution, _ bool) {
			if rng.Float64() < 0.5 {
				betas := m.BetaVars()
				p := betas[rng.Intn(len(betas))]
				b := BetaBounds{Lb: float64(rng.Intn(2)), Ub: float64(rng.Intn(4)) - 1}
				if err := m.SetBounds(p, b); err != nil {
					t.Fatal(err)
				}
				return
			}
			li := rng.Intn(len(pr.Platform.Links))
			if err := m.SetLinkBudget(li, float64(rng.Intn(6))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name         string
		seedBase     int64
		seeds, steps int
		mutator      func() mutator
	}{
		{"branch", 100, 40, 6, branch},
		{"bound-sets", 200, 30, 2, boundSet},
		{"pin-branch-reset", 400, 25, 12, pinBranchReset},
		{"link-budgets", 500, 20, 10, linkBudgets},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < int64(tc.seeds); seed++ {
				rng := rand.New(rand.NewSource(tc.seedBase + seed))
				pr := randomPlatformProblem(t, rng, 4+rng.Intn(4))
				m, err := pr.NewModel([]Objective{SUM, MAXMIN}[seed%2])
				if err != nil {
					t.Fatal(err)
				}
				if len(m.BetaVars()) == 0 {
					continue
				}
				_, lastOK, err := m.Solve(nil)
				if err != nil || !lastOK {
					t.Fatalf("seed %d: root solve: ok=%v err=%v", seed, lastOK, err)
				}
				last, basis := m.Solution(), m.Basis()
				mutate := tc.mutator()
				for step := 0; step < tc.steps; step++ {
					mutate(rng, m, pr, last, lastOK)
					_, wOK, err := m.Solve(basis)
					if err != nil {
						t.Fatalf("seed %d step %d: warm: %v", seed, step, err)
					}
					warm, wBasis := m.Solution(), m.Basis()
					cold, cOK, err := m.solveOnce((*lp.Problem).Solve)
					if err != nil {
						t.Fatalf("seed %d step %d: cold: %v", seed, step, err)
					}
					ref, rOK, err := m.solveOnce(lptest.DenseSolver{}.Solve)
					if err != nil {
						t.Fatalf("seed %d step %d: oracle: %v", seed, step, err)
					}
					if wOK != cOK || wOK != rOK {
						t.Fatalf("seed %d step %d: feasibility disagreement warm=%v cold=%v oracle=%v", seed, step, wOK, cOK, rOK)
					}
					lastOK = wOK
					if !wOK {
						continue
					}
					tol := 1e-9 * (1 + math.Abs(ref.Objective))
					if math.Abs(warm.Objective-ref.Objective) > tol {
						t.Fatalf("seed %d step %d: warm %.12g, oracle %.12g", seed, step, warm.Objective, ref.Objective)
					}
					if math.Abs(cold.Objective-ref.Objective) > tol {
						t.Fatalf("seed %d step %d: cold %.12g, oracle %.12g", seed, step, cold.Objective, ref.Objective)
					}
					// (7e) on the solution as extracted: every β route's α
					// fits under its own β̃ connections.
					for _, p := range m.BetaVars() {
						a, capA := warm.Alpha[p.K][p.L], warm.Beta[p.K][p.L]*pr.Platform.RouteBW(p.K, p.L)
						if a > capA+1e-7*(1+capA) {
							t.Fatalf("seed %d step %d: (7e) on route %v: α=%.12g > β̃·bw=%.12g", seed, step, p, a, capA)
						}
					}
					last, basis = warm, wBasis
				}
			}
		})
	}
}

// TestRelaxedSolveAllocsIndependentOfK is the clock-free guard on what
// every relaxed what-if pays to get its optimum out of the solver, run as
// the service serves one: Freeze once, then per run pose a speed cut,
// Solve warm, read the answer as the frozen optimum plus what moved
// (Diff), retract and Rewind. Each run takes at least one dual pivot and
// no refactorization, and allocates nothing per cell or per route, so
// the count is the same small constant at K = 5 and K = 20 (measured 0
// at both).
func TestRelaxedSolveAllocsIndependentOfK(t *testing.T) {
	allocs := func(k int) float64 {
		pr := randomPlatformProblem(t, rand.New(rand.NewSource(int64(k))), k)
		m, err := pr.NewModel(MAXMIN)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.BetaVars()) < k {
			t.Fatalf("K=%d: only %d β routes, the guard needs the route count to grow with K", k, len(m.BetaVars()))
		}
		if _, ok, err := m.Solve(nil); err != nil || !ok {
			t.Fatalf("K=%d: root solve: ok=%v err=%v", k, ok, err)
		}
		basis := m.Basis()
		if err := m.Freeze(); err != nil {
			t.Fatal(err)
		}
		cluster, speed := 0, 0.0
		whatIf := func(scale float64) {
			if err := m.SetSpeed(cluster, speed*scale); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := m.Solve(basis); err != nil || !ok {
				t.Fatalf("K=%d: warm solve: ok=%v err=%v", k, ok, err)
			}
			if _, ok := m.Diff(); !ok {
				t.Fatalf("K=%d: the solve from the frozen state was not told as a diff", k)
			}
			if err := m.SetSpeed(cluster, speed); err != nil {
				t.Fatal(err)
			}
			m.Rewind()
		}
		// The first cluster whose speed, halved, the committed basis
		// cannot absorb without a dual pivot.
		for cluster = 0; cluster < k; cluster++ {
			speed = pr.Platform.Clusters[cluster].Speed
			before := m.SolverStats()
			whatIf(0.5)
			if after := m.SolverStats(); after.DualPivots > before.DualPivots && after.Refactorizations == before.Refactorizations {
				break
			}
		}
		if cluster == k {
			t.Fatalf("K=%d: no speed cut takes a dual pivot without refactorizing", k)
		}
		before, runs := m.SolverStats(), 0
		n := testing.AllocsPerRun(20, func() {
			whatIf(0.5)
			runs++
		})
		after := m.SolverStats()
		if pivots := after.DualPivots - before.DualPivots; pivots < runs || after.Refactorizations != before.Refactorizations {
			t.Fatalf("K=%d: %d runs took %d dual pivots and %d refactorizations, want at least one pivot and no refactorization each",
				k, runs, pivots, after.Refactorizations-before.Refactorizations)
		}
		t.Logf("K=%d: cluster %d's speed cut, %d dual pivots per run, %v allocations", k, cluster, (after.DualPivots-before.DualPivots)/runs, n)
		return n
	}
	small, large := allocs(5), allocs(20)
	if small != large || small > 4 {
		t.Fatalf("a warm what-if's Solve + Diff allocates %v objects at K=5 and %v at K=20, want the same count, at most 4", small, large)
	}
}
