package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestBasisSerializeRoundTrip is the serialization property test
// behind the cluster's portable warm sessions: a basis Viewed on one
// instance and Imported into a *freshly built* instance over an
// equivalent problem — put on Rebase's canonical footing, exactly as a
// snapshot-rebuilt replica's first committed solve does — must
// warm-start to the same optimum at 1e-9 with zero cold solves and zero
// cold fallbacks on the receiving instance. (The optimum itself is checked against the
// lptest oracle by TestRevisedMatchesOracle's round-trip case.)
func TestBasisSerializeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(27000 + seed))
		p := randomBoundedProblem(rng, seed%2 == 0)
		src := NewRevised(p)
		sol, err := src.SolveFrom(nil)
		if err != nil {
			t.Fatalf("seed %d: source cold: %v", seed, err)
		}
		bas := src.Basis()
		// Drive a few warm mutations so the exported basis is a
		// "lived-in" one (etas absorbed, at-upper statuses set),
		// not just the first cold optimum.
		for step := 0; step < 3; step++ {
			mutateProblem(rng, p)
			sol, err = src.SolveFrom(bas)
			if err != nil {
				t.Fatalf("seed %d step %d: source warm: %v", seed, step, err)
			}
			bas = src.Basis()
		}
		if sol.Status != Optimal {
			continue
		}

		// View is the basis's own arrays: the live basis, the ascending
		// at-upper columns and the settled weights, not copies.
		cols, upper, w := bas.View()
		if again, _, _ := bas.View(); len(again) > 0 && &again[0] != &cols[0] {
			t.Fatalf("seed %d: View copies", seed)
		}
		if len(cols) != src.m || (w != nil) != src.dseOK || (w != nil && len(w) != src.m) || !slices.IsSorted(upper) {
			t.Fatalf("seed %d: %d columns, %d weights, at-upper %v for %d rows", seed, len(cols), len(w), upper, src.m)
		}
		for i, c := range cols {
			if int(c) != src.basis[i] {
				t.Fatalf("seed %d: basic column %d is %d, the context's %d", seed, i, c, src.basis[i])
			}
		}
		cols, upper, w = slices.Clone(cols), slices.Clone(upper), slices.Clone(w)
		imported := ImportBasis(cols, upper, w)
		cols[0] = -7 // mutating the caller's buffers must not affect the import
		if w != nil {
			w[0] = -7
		}

		dst := NewRevised(p)
		dst.Rebase()
		got, err := dst.SolveFrom(imported)
		if err != nil {
			t.Fatalf("seed %d: rebuilt warm: %v", seed, err)
		}
		st := dst.Stats()
		if st.ColdSolves != 0 || st.ColdFallbacks != 0 {
			t.Fatalf("seed %d: rebuilt solve not warm: cold=%d fallbacks=%d",
				seed, st.ColdSolves, st.ColdFallbacks)
		}
		if got.Status != Optimal {
			t.Fatalf("seed %d: rebuilt status %v, want Optimal", seed, got.Status)
		}
		if d := math.Abs(got.Objective - sol.Objective); d > 1e-9*(1+math.Abs(sol.Objective)) {
			t.Fatalf("seed %d: rebuilt optimum %.12g vs source %.12g (diff %g)",
				seed, got.Objective, sol.Objective, d)
		}
	}
}

// TestImportBasisCorruptFallsBackCold pins the degradation contract:
// an imported basis that is damaged in transit (wrong length, out of
// range, duplicate columns) must not fail the solve — SolveFrom on a
// primed instance falls back to a correctness-preserving cold solve
// and counts the fallback.
func TestImportBasisCorruptFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(28000))
	p := randomBoundedProblem(rng, true)
	src := NewRevised(p)
	sol, err := src.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("source cold: %v status %v", err, sol.Status)
	}
	cols, upper, w := src.Basis().View()
	corruptions := map[string]*Basis{
		"truncated":       ImportBasis(cols[:len(cols)-1], upper, w),
		"outOfRange":      func() *Basis { c := slices.Clone(cols); c[0] = 1 << 30; return ImportBasis(c, upper, w) }(),
		"duplicate":       func() *Basis { c := slices.Clone(cols); c[len(c)-1] = c[0]; return ImportBasis(c, upper, w) }(),
		"upperOutOfRange": ImportBasis(cols, append(slices.Clone(upper), int32(src.ncols)), w),
	}
	for name, bad := range corruptions {
		dst := NewRevised(p)
		dst.Rebase()
		got, err := dst.SolveFrom(bad)
		if err != nil {
			t.Fatalf("%s: solve failed hard: %v", name, err)
		}
		if got.Status != Optimal {
			t.Fatalf("%s: status %v, want Optimal via cold fallback", name, got.Status)
		}
		if d := math.Abs(got.Objective - sol.Objective); d > 1e-9*(1+math.Abs(sol.Objective)) {
			t.Fatalf("%s: optimum %.12g vs %.12g", name, got.Objective, sol.Objective)
		}
		if st := dst.Stats(); st.ColdSolves != 1 {
			t.Fatalf("%s: ColdSolves=%d, want 1 (fallback)", name, st.ColdSolves)
		}
	}
}
