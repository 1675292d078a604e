package lp

// Basis is an opaque snapshot of a simplex basis, suitable for warm
// starting a later re-solve of the same Revised instance (or of
// another Revised instance built from a Problem with the identical
// constraint structure — e.g. sibling nodes of a branch-and-bound
// tree sharing one model). Beyond the basic column set it records
// which nonbasic columns rest at their upper bound, so a re-solve
// under mutated variable bounds resumes from the exact bounded-
// variable simplex state the producing solve ended in. Column
// indices cover the solver's internal column space, so a Basis is
// only meaningful to the instance family that produced it; SolveFrom
// validates and silently falls back to a cold solve on any mismatch.
// A Basis is immutable once returned (Revised.Basis copies out of the
// solver state), so sharing one pointer across branch-and-bound
// siblings is safe.
type Basis struct {
	cols  []int
	upper []bool // nonbasic-at-upper-bound status per internal column
}

// Export copies the basis out of its opaque form: the basic column
// set (length m, internal column indices) and the nonbasic-at-upper
// statuses (length ncols, nil when the producing solve recorded
// none). The returned slices are fresh copies; the Basis stays
// immutable. The snapshot sealer reads View instead; Export is for a
// caller that keeps the slices.
func (b *Basis) Export() (cols []int, upper []bool) {
	cols = append([]int(nil), b.cols...)
	if b.upper != nil {
		upper = append([]bool(nil), b.upper...)
	}
	return cols, upper
}

// View returns the basis's own two slices, in Export's form, without
// copying them: for a caller that only reads them, such as a snapshot
// sealer writing them onto the wire. A Basis never changes once
// returned, so they stay valid as long as the Basis; the caller must
// not write to them.
func (b *Basis) View() (cols []int, upper []bool) {
	return b.cols, b.upper
}

// ImportBasis is the inverse of Export: it rebuilds a Basis from a
// serialized column set and at-upper statuses. The slices are copied,
// so the caller may reuse its buffers. Indices are NOT validated here
// — exactly as with a live Basis handed across instances, SolveFrom
// checks the column set against the receiving instance and silently
// falls back to a cold solve on any mismatch (wrong length, out of
// range, duplicates, singular basis), so a corrupted import degrades
// to correctness-preserving cold behavior rather than failing.
func ImportBasis(cols []int, upper []bool) *Basis {
	b := &Basis{cols: append([]int(nil), cols...)}
	if upper != nil {
		b.upper = append([]bool(nil), upper...)
	}
	return b
}
