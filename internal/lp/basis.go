package lp

import "math"

// Basis is an opaque snapshot of a simplex basis, suitable for warm
// starting a later re-solve of the same Revised instance (or of
// another Revised instance built from a Problem with the identical
// constraint structure — e.g. sibling nodes of a branch-and-bound
// tree sharing one model). Beyond the basic column set it records
// which nonbasic columns rest at their upper bound, so a re-solve
// under mutated variable bounds resumes from the exact bounded-
// variable simplex state the producing solve ended in, and the dual
// steepest-edge weights that solve left settled, so the re-solve prices
// its leaving rows as the producing context would have. Column
// indices cover the solver's internal column space, so a Basis is
// only meaningful to the instance family that produced it; SolveFrom
// validates and silently falls back to a cold solve on any mismatch.
// A Basis is immutable once returned (Revised.Basis copies out of the
// solver state), so sharing one pointer across branch-and-bound
// siblings is safe.
type Basis struct {
	cols  []int32   // the basic column of each row
	upper []int32   // the nonbasic columns resting at their upper bound, ascending
	w     []float64 // γ_i = ‖e_iᵀB⁻¹‖² per row; nil when the producing context had none
}

// View returns the basis's own slices without copying them: the basic
// column set (length m, internal column indices), the ascending
// at-upper columns and the steepest-edge weights (length m, or nil) —
// for a caller that only reads them, such as a snapshot sealer writing
// them onto the wire. A Basis never changes once returned, so they stay
// valid as long as the Basis; the caller must not write to them.
func (b *Basis) View() (cols, upper []int32, w []float64) {
	return b.cols, b.upper, b.w
}

// ImportBasis is the inverse of View: it rebuilds a Basis from a
// serialized column set, at-upper list and weights. The slices are
// copied, so the caller may reuse its buffers. Nothing is validated
// here — exactly as with a live Basis handed across instances,
// SolveFrom checks the columns against the receiving instance and
// silently falls back to a cold solve on any mismatch (wrong length,
// out of range, duplicates, singular basis), and it adopts the weights
// only when there is one per row, each finite and at least dseFloor,
// computing them exactly otherwise — so a corrupted import degrades to
// correctness-preserving behavior rather than failing.
func ImportBasis(cols, upper []int32, w []float64) *Basis {
	ids := append(make([]int32, 0, len(cols)+len(upper)), cols...)
	b := &Basis{cols: ids[:len(cols):len(cols)], upper: append(ids[len(cols):], upper...)}
	if w != nil {
		b.w = append([]float64(nil), w...)
	}
	return b
}

// usableWeights reports whether w can price an m-row basis: one weight
// per row, each finite and no smaller than dseFloor, as the recurrence
// keeps them.
func usableWeights(w []float64, m int) bool {
	if len(w) != m {
		return false
	}
	for _, g := range w {
		if !(g >= dseFloor) || math.IsInf(g, 1) { // !(g >= …) is true for NaN
			return false
		}
	}
	return true
}
