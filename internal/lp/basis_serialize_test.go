package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestBasisSerializeRoundTrip is the serialization property test
// behind the cluster's portable warm sessions: a basis Exported from
// one instance and Imported into a *freshly built* instance over an
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

		cols, upper := bas.Export()
		// The exported form must be detached from the live basis.
		if len(cols) > 0 {
			cols2, upper2 := bas.Export()
			cols2[0] = -99
			if upper2 != nil && len(upper2) > 0 {
				upper2[0] = !upper2[0]
			}
			if cols[0] == -99 {
				t.Fatalf("seed %d: Export aliases internal state", seed)
			}
		}
		// View is Export without the copy: the same two slices' contents,
		// the basis's own arrays.
		vcols, vupper := bas.View()
		if !slices.Equal(vcols, cols) || !slices.Equal(vupper, upper) || (vupper == nil) != (upper == nil) {
			t.Fatalf("seed %d: View differs from Export", seed)
		}
		if again, _ := bas.View(); len(again) > 0 && &again[0] != &vcols[0] {
			t.Fatalf("seed %d: View copies", seed)
		}
		imported := ImportBasis(cols, upper)
		cols[0] = -7 // mutating the caller's buffers must not affect the import

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
	cols, upper := src.Basis().Export()
	corruptions := map[string]*Basis{
		"truncated":  ImportBasis(cols[:len(cols)-1], upper),
		"outOfRange": func() *Basis { c := append([]int(nil), cols...); c[0] = 1 << 30; return ImportBasis(c, upper) }(),
		"duplicate":  func() *Basis { c := append([]int(nil), cols...); c[len(c)-1] = c[0]; return ImportBasis(c, upper) }(),
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
