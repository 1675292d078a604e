package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/platform"
	"repro/internal/platgen"
)

// retract returns m to the committed platform the way the scheduling
// service does after a what-if: inject it again, reset the β boxes.
func retract(t *testing.T, m *Model, committed *platform.Platform) {
	t.Helper()
	if err := m.Inject(committed); err != nil {
		t.Fatal(err)
	}
	m.ResetBounds()
}

// forkMutate applies a random capacity/bound mutation mix to a model,
// deriving everything from rng so the same seed produces the same
// mutation on a fork and on the serial reference path.
func forkMutate(t *testing.T, m *Model, pr *Problem, routes []Pair, rng *rand.Rand) {
	t.Helper()
	k := rng.Intn(len(pr.Platform.Clusters))
	if err := m.SetSpeed(k, pr.Platform.Clusters[k].Speed*(0.4+rng.Float64())); err != nil {
		t.Fatal(err)
	}
	if err := m.SetGateway(k, pr.Platform.Clusters[k].Gateway*(0.4+rng.Float64())); err != nil {
		t.Fatal(err)
	}
	if len(pr.Platform.Links) > 0 && rng.Float64() < 0.7 {
		li := rng.Intn(len(pr.Platform.Links))
		if err := m.SetLinkBudget(li, float64(rng.Intn(pr.Platform.Links[li].MaxConnect+2))); err != nil {
			t.Fatal(err)
		}
	}
	if len(routes) > 0 && rng.Float64() < 0.5 {
		p := routes[rng.Intn(len(routes))]
		if err := m.SetBounds(p, BetaBounds{Lb: 0, Ub: rng.Float64() * 3}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForkMatchesSerialWhatIf pins the fork contract: a fork answers a
// mutation exactly like the serial mutate/solve/retract path on the
// parent, and the parent's committed state and warm re-solve are
// untouched afterwards.
func TestForkMatchesSerialWhatIf(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pr := mutatorProblem(t, seed, 6)
		m, err := pr.NewModel(SUM)
		if err != nil {
			t.Fatal(err)
		}
		base, ok, err := m.Solve(nil)
		if err != nil || !ok {
			t.Fatalf("nominal solve: ok=%v err=%v", ok, err)
		}
		basis := m.Basis()
		routes := m.BetaVars()

		for trial := 0; trial < 8; trial++ {
			mutSeed := seed*1000 + int64(trial)

			// Serial reference: mutate the parent, solve, retract.
			forkMutate(t, m, pr, routes, rand.New(rand.NewSource(mutSeed)))
			wantBound, wantOK, err := m.Solve(basis)
			if err != nil {
				t.Fatal(err)
			}
			retract(t, m, pr.Platform)

			f, err := m.Fork()
			if err != nil {
				t.Fatal(err)
			}
			forkMutate(t, f, pr, routes, rand.New(rand.NewSource(mutSeed)))
			gotBound, gotOK, err := f.Solve(basis)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK {
				t.Fatalf("seed %d trial %d: fork feasible=%v, serial %v", seed, trial, gotOK, wantOK)
			}
			if gotOK && math.Abs(gotBound-wantBound) > 1e-9*(1+math.Abs(wantBound)) {
				t.Fatalf("seed %d trial %d: fork bound %.12g, serial %.12g",
					seed, trial, gotBound, wantBound)
			}
		}

		// The parent's committed state survived every fork.
		again, ok, err := m.Solve(basis)
		if err != nil || !ok {
			t.Fatalf("parent re-solve: ok=%v err=%v", ok, err)
		}
		if math.Abs(again-base) > 1e-9*(1+math.Abs(base)) {
			t.Fatalf("parent disturbed: base %.12g, after forks %.12g", base, again)
		}
	}
}

// TestForkConcurrent solves many forks of one parent at once; the
// race detector checks the shared read-only state, and every answer
// must match its precomputed serial reference.
func TestForkConcurrent(t *testing.T) {
	pr := mutatorProblem(t, 3, 7)
	m, err := pr.NewModel(SUM)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Solve(nil); err != nil || !ok {
		t.Fatalf("nominal solve: ok=%v err=%v", ok, err)
	}
	basis := m.Basis()
	routes := m.BetaVars()

	const n = 24
	type answer struct {
		bound float64
		ok    bool
	}
	want := make([]answer, n)
	for i := 0; i < n; i++ {
		forkMutate(t, m, pr, routes, rand.New(rand.NewSource(int64(i))))
		b, okq, err := m.Solve(basis)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{b, okq}
		retract(t, m, pr.Platform)
	}

	forks := make([]*Model, n)
	for i := range forks {
		if forks[i], err = m.Fork(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]string, n)
	for i := range forks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			forkMutate(t, forks[i], pr, routes, rand.New(rand.NewSource(int64(i))))
			b, okq, err := forks[i].Solve(basis)
			switch {
			case err != nil:
				errs[i] = err.Error()
			case okq != want[i].ok:
				errs[i] = "feasibility mismatch"
			case okq && math.Abs(b-want[i].bound) > 1e-9*(1+math.Abs(want[i].bound)):
				errs[i] = "bound mismatch"
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("fork %d: %s", i, e)
		}
	}
	if got := m.SolverStats().Forks; got != n {
		t.Fatalf("parent counted %d forks, want %d", got, n)
	}
}

// TestForkAllocatesNoDeadFactor bounds what one Model.Fork() allocates on
// a K=20 model of the benchmark's platform shape. A fork used to build
// five LU arrays that its birth Rewind dropped for the parent's frozen
// ones at once (362.7 KiB on this instance; 359.6 without them), and the
// whole Markowitz elimination scratch although a fork almost never
// refactorizes. With that scratch left to the first factorize, and the
// two m-long nonzero lists a context then carried, it read 259.5 KiB; the
// bound is that plus 2.5 %, 266 KiB. A third list (τ's) and the sparse
// FTRANs' two touched-position bitsets bring it to 262.3 KiB, which the
// test prints. A caller that forks repeatedly keeps its forks and reforks
// them, which allocates nothing (TestReforkAllocatesNothing).
func TestForkAllocatesNoDeadFactor(t *testing.T) {
	pl, err := platgen.Generate(platgen.Params{
		K: 20, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewProblem(pl).NewModel(SUM)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Solve(nil); err != nil || !ok {
		t.Fatalf("nominal solve: ok=%v err=%v", ok, err)
	}
	if _, err := m.Fork(); err != nil { // the first fork also pays the parent's Freeze
		t.Fatal(err)
	}
	// TotalAlloc is process-wide: a runtime goroutine allocating in the
	// window can only add, so the smallest of a few forks is the fork's.
	kib := math.Inf(1)
	for n := 0; n < 5; n++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := m.Fork()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(f)
		kib = math.Min(kib, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}
	t.Logf("one Model.Fork() at K=20: %.1f KiB", kib)
	if kib >= 266 {
		t.Fatalf("one Model.Fork() at K=20 allocated %.1f KiB, want below 266: a fork builds no factor and no elimination scratch", kib)
	}
}

// TestReforkAllocatesNothing holds a stale fork's in-place refresh to zero
// allocations on the same K=20 platform, under MAXMIN. Two committed
// states of one structure — the model's, and a fork's that committed a
// capacity change (Rebase, re-solve) and froze it — take turns as the
// state a kept fork is reforked onto, so every Refork measured is the full
// refresh a commit leaves: copy the frozen state and the capacities,
// re-alias the LU arrays, rewind. After each Refork the kept fork answers
// a what-if that pivots at least twice, and retracts it, twice: the first
// asking's first pivot misses the fork's path cache — filed under the
// other state — and files its entry in the storage the other state's
// entries left; the second asking is served that pivot and files the next
// one's entry under it, a path a level deep. And the kept fork answers on
// the new state what a fresh fork does. The test prints the count.
func TestReforkAllocatesNothing(t *testing.T) {
	pl, err := platgen.Generate(platgen.Params{
		K: 20, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// MAXMIN: a speed cut moves its balanced optimum, so what-ifs pivot.
	m, err := NewProblem(pl).NewModel(MAXMIN)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Solve(nil); err != nil || !ok {
		t.Fatalf("nominal solve: ok=%v err=%v", ok, err)
	}
	basis := m.Basis()
	committed, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := committed.SetGateway(0, pl.Clusters[0].Gateway/2); err != nil {
		t.Fatal(err)
	}
	committed.Rebase()
	if _, ok, err := committed.Solve(basis); err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}
	kept, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// whatIf reforks kept onto from and asks twice: cut the cluster's speed
	// to half, solve, retract the cut and rewind. It reports the first
	// asking's dual pivots, whether the second took as many, and the
	// refactorizations of both (Refork zeroed kept's counters).
	whatIf := func(from *Model, cluster int) (pivots int, same bool, refactors int, err error) {
		if err := from.Refork(kept); err != nil {
			return 0, false, 0, err
		}
		speed := pl.Clusters[cluster].Speed
		for n := 0; n < 2; n++ {
			if err := kept.SetSpeed(cluster, speed/2); err != nil {
				return 0, false, 0, err
			}
			if _, _, err := kept.Solve(basis); err != nil {
				return 0, false, 0, err
			}
			if err := kept.SetSpeed(cluster, speed); err != nil {
				return 0, false, 0, err
			}
			kept.Rewind()
			if n == 0 {
				pivots = kept.SolverStats().DualPivots
			}
		}
		st := kept.SolverStats()
		return pivots, st.DualPivots == 2*pivots, st.Refactorizations, nil
	}
	// The first cluster whose speed cut pivots at least twice off both
	// states without a refactorization, which would give the fork a factor
	// of its own.
	cluster := 0
	for ; cluster < pl.K(); cluster++ {
		both := true
		for _, from := range []*Model{committed, m} {
			pivots, same, refactors, err := whatIf(from, cluster)
			if err != nil {
				t.Fatal(err)
			}
			both = both && pivots >= 2 && same && refactors == 0
		}
		if both {
			break
		}
	}
	if cluster == pl.K() {
		t.Fatal("no speed cut pivots twice off both states without a refactorization")
	}
	var runErr error
	runs, bad := 0, 0
	allocs := testing.AllocsPerRun(20, func() {
		for _, from := range []*Model{committed, m} {
			pivots, same, refactors, err := whatIf(from, cluster)
			if err != nil {
				runErr = err
				return
			}
			runs++
			if pivots < 2 || !same || refactors != 0 {
				bad++
			}
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("two stale Reforks at K=20, each followed by a what-if on cluster %d's speed asked twice: %.0f allocs", cluster, allocs)
	if allocs != 0 {
		t.Fatalf("a stale Refork and a what-if asked twice at K=20 allocated %.1f times per pair, want 0", allocs)
	}
	if bad != 0 {
		t.Fatalf("%d of %d what-ifs took fewer than two pivots, pivoted differently when asked again, or refactorized", bad, runs)
	}

	if err := committed.Refork(kept); err != nil {
		t.Fatal(err)
	}
	fresh, err := committed.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Model{kept, fresh} {
		if err := f.SetSpeed(3, pl.Clusters[3].Speed*0.7); err != nil {
			t.Fatal(err)
		}
	}
	got, gotOK, err := kept.Solve(basis)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOK, err := fresh.Solve(basis)
	if err != nil {
		t.Fatal(err)
	}
	if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("reforked fork answered %v %v, fresh fork %v %v", got, gotOK, want, wantOK)
	}
}

// TestBasicSlackGatewayRaiseMovesOneRow is the model-level half of the
// service's TestZeroPivotWhatIfCostsWhatMoved: a gateway raise on a
// cluster whose gateway row has a basic slack, solved from the frozen
// state as a what-if is, takes no pivot, writes no X entry and refiles
// exactly one basis row — at K = 10 as at K = 40, so what it costs above
// its pivots is what it moved, not the model's size.
func TestBasicSlackGatewayRaiseMovesOneRow(t *testing.T) {
	for _, k := range []int{10, 40} {
		pr := randomPlatformProblem(t, rand.New(rand.NewSource(int64(k))), k)
		m, err := pr.NewModel(SUM)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := m.Solve(nil); err != nil || !ok {
			t.Fatalf("K=%d: commit solve ok=%v err=%v", k, ok, err)
		}
		basis := m.Basis()
		found := false
		for c := 0; c < k && !found; c++ {
			g := pr.Platform.Clusters[c].Gateway
			for _, scale := range []float64{1.25, 1.5, 2} {
				if err := m.Freeze(); err != nil {
					t.Fatal(err)
				}
				if err := m.SetGateway(c, g*scale); err != nil {
					t.Fatal(err)
				}
				before := m.SolverStats()
				if _, ok, err := m.Solve(basis); err != nil || !ok {
					t.Fatalf("K=%d cluster %d: what-if solve ok=%v err=%v", k, c, ok, err)
				}
				after := m.SolverStats()
				base, rows, cols := m.rev.Moved()
				if err := m.SetGateway(c, g); err != nil {
					t.Fatal(err)
				}
				m.Rewind()
				if base == nil || after.Pivots != before.Pivots || after.BoundFlips != before.BoundFlips || len(cols) != 0 {
					continue
				}
				if rows != 1 {
					t.Fatalf("K=%d cluster %d ×%g: a zero-pivot gateway raise that wrote no X entry refiled %d basis rows, want 1", k, c, scale, rows)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("K=%d: no gateway raise left X in place", k)
		}
	}
}
