package heuristics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/platform"
	"repro/internal/platgen"
)

// TestHeuristicsLeaveSharedOptimumUnwritten: a solve from a model's
// frozen state is told as the frozen optimum plus what moved
// (core.Model.Diff), and Solution hands its caller that optimum itself
// when nothing moved, or a copy written out where it did, so every caller
// shares one block of cells. On network-bound platforms, with
// the model frozen after a commit and a capacity raised by a mutation
// that the committed basis absorbs without a pivot, LPRG, LPRR (fixed
// seed) and branch-and-bound each run twice from the frozen state: the
// frozen optimum's cells stay bit for bit what they were, and both runs
// return the same allocation.
func TestHeuristicsLeaveSharedOptimumUnwritten(t *testing.T) {
	runs := []Name{NameLPRG, NameLPRR, NameBnB}
	cases, shared := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pl, err := platgen.Generate(platgen.Params{
			K: 5, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		pr := core.NewProblem(pl)
		for i := range pr.Payoffs {
			pr.Payoffs[i] = float64(1 + rng.Intn(3))
		}
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			m, err := pr.NewModel(obj)
			if err != nil {
				t.Fatal(err)
			}
			commit, err := RelaxOn(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			basis := commit.Root
			if err := m.Freeze(); err != nil {
				t.Fatal(err)
			}
			hyp, base := zeroPivotGatewayRaise(t, m, pl, basis)
			if hyp == nil {
				continue
			}
			cases++
			want := snapshotCells(base)
			hpr := &core.Problem{Platform: hyp, Payoffs: pr.Payoffs}
			for _, name := range runs {
				var first *core.Allocation
				for n := 0; n < 2; n++ {
					m.Rewind()
					rel, err := RelaxOn(m, basis)
					if err != nil {
						t.Fatalf("seed %d %v %s run %d: %v", seed, obj, name, n, err)
					}
					res, err := Run(name, hpr, rel, rand.New(rand.NewSource(7)), 2000)
					if err != nil && err != ErrNodeBudget { // an incumbent is still a deterministic answer
						t.Fatalf("seed %d %v %s run %d: %v", seed, obj, name, n, err)
					}
					got := res.Alloc
					if name == NameLPRG {
						if _, ok := m.Diff(); !ok {
							t.Fatalf("seed %d %v: LPRG's solve from the frozen state was not told as a diff", seed, obj)
						}
						shared++
					}
					if !reflect.DeepEqual(snapshotCells(base), want) {
						t.Fatalf("seed %d %v %s run %d: the frozen optimum's cells changed", seed, obj, name, n)
					}
					if n == 0 {
						first = got
					} else if !reflect.DeepEqual(got, first) {
						t.Fatalf("seed %d %v %s: the second run's allocation differs from the first's", seed, obj, name)
					}
				}
			}
			if err := m.Inject(pl); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cases < 4 || shared < 8 {
		t.Fatalf("only %d models found a zero-pivot mutation (%d shared LPRG reads): the test lost its reach", cases, shared)
	}
}

// zeroPivotGatewayRaise looks for one cluster whose gateway, raised by
// 10 %, the frozen basis absorbs without a pivot. It leaves that raise
// injected into m and returns the hypothetical platform and the frozen
// optimum the solve read, or nil when no cluster qualifies.
func zeroPivotGatewayRaise(t *testing.T, m *core.Model, pl *platform.Platform, basis *lp.Basis) (*platform.Platform, *core.RelaxedSolution) {
	t.Helper()
	for k := range pl.Clusters {
		hyp := pl.Clone()
		hyp.Clusters[k].Gateway *= 1.1
		if err := m.Inject(hyp); err != nil {
			t.Fatal(err)
		}
		m.Rewind()
		pivots := m.SolverStats().Pivots
		if _, ok, err := m.Solve(basis); err != nil || !ok {
			t.Fatalf("what-if solve: ok=%v err=%v", ok, err)
		}
		if d, ok := m.Diff(); ok && m.SolverStats().Pivots == pivots {
			return hyp, d.Base
		}
		if err := m.Inject(pl); err != nil {
			t.Fatal(err)
		}
	}
	return nil, nil
}

// snapshotCells copies a relaxed solution's tables as bit patterns.
func snapshotCells(s *core.RelaxedSolution) [][]uint64 {
	var out [][]uint64
	for _, rows := range [][][]float64{s.Alpha, s.Beta} {
		for _, row := range rows {
			bits := make([]uint64, len(row))
			for i, v := range row {
				bits[i] = math.Float64bits(v)
			}
			out = append(out, bits)
		}
	}
	return out
}
