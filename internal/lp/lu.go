package lp

import (
	"math"
	"math/bits"
)

// luFactor represents the basis as a sparse LU factorization
// maintained across pivots by an eta file.
//
// The base factorization is P·B·Q = L·U computed by right-looking
// Gaussian elimination with Markowitz-style threshold pivoting over
// the sparse basis columns: at every step the pivot minimizes the
// Markowitz fill bound (r_i−1)(c_j−1) among entries no smaller than
// luTau times their column's magnitude, with row and column
// singletons — the bulk of these bases, which are dominated by ±e_i
// slack and artificial columns — peeled off first as fill-free O(1)
// pivots. L (unit lower triangular) and U are stored column-wise in
// elimination-position space, so FTRAN is a forward L-solve plus a
// backward U-solve and BTRAN the two transposed sweeps.
//
// Basis changes append to an eta file instead of touching L/U: a
// pivot replacing position p's column with an entering column whose
// FTRAN'd direction is d turns B into B·E where E is the identity
// with column p replaced by d, so
//
//	FTRAN  applies E⁻¹ after the base solve  (oldest eta first),
//	BTRAN  applies E⁻ᵀ before it             (newest eta first),
//
// at O(nnz(d)) per eta. The file is rebuilt into a fresh
// factorization when it grows past a length or density budget
// (shouldRefactor) or when an update pivot looks numerically unsafe
// relative to its direction (update refuses, the caller refactors) —
// the two triggers that bound both solve cost and error drift.
//
// The index convention follows the simplex state: the basis matrix B
// maps basis-position space to constraint-row space (column p of B is
// the effective column of r.basis[p]), so ftran solves B·x = v (v
// indexed by row, result by position) and btran solves Bᵀ·y = v (v
// indexed by position, result by row). Those two take a dense right-hand
// side of length m and cost O(m + nnz). The FTRANs a dual pivot runs start
// from something sparse — a matrix column (ftranCol), a few rows
// (ftranRows: the rhs change a solve from the frozen state starts with,
// τ = B⁻¹ρ from ρ's list), the flipped columns' aggregate (add, then
// solve) — and cost what they touch: add places the entries in position
// space and marks them in a touched-position bitset, the L sweep ascends
// and the U sweep descends over its set bits only, the gather and the eta
// file mark an output bitset, and the ascending nonzero list (the contract
// is on Revised.dIdx) is read off it. Each nonzero gets the dense sweep's
// operations in the dense sweep's order, so the values are the general
// solve's bit for bit but for a zero's sign (DESIGN.md "Pivot path: what a
// dual pivot touches"). btranRow, ρ, stays a sweep that starts at the
// earliest position the unit vector and the eta file reach.
type luFactor struct {
	r *Revised
	m int

	luArrays

	etas    []luEta
	etaIdx  []int32 // shared arena backing every eta's nonzeros
	etaVal  []float64
	minEtas int // deferRefactor backoff threshold

	// borrowed marks the committed arrays as not this factor's to write:
	// none exist yet (a new factor, so a fork allocates none it would drop
	// for its parent's at once), or they are the ones a frozenState holds
	// — this context's own Rewind target, and what its forks read
	// concurrently. The next commit then allocates fresh storage for every
	// committed array instead of writing in place. The eta file is never
	// borrowed — every context owns its own.
	borrowed bool

	// The solve workspace (position space) and the two touched-position
	// bitsets of the sparse FTRANs: wMark over w's positions, outMark over
	// the result's. Every solve leaves w all zero and both bitsets empty,
	// which is what the next one assumes.
	w              []float64
	wMark, outMark []uint64

	// Factorization scratch, allocated by the first factorize — a fork
	// almost never refactorizes — and reused across refactors.
	cols               [][]luEntry
	rowsCand           [][]int32
	rowCount, colCount []int32
	rowDone, colDone   []bool
	liveCols           []int32 // ascending; a superset of the columns not yet eliminated
	singleCols         []int32
	singleRows         []int32
	pivR, pivC         []int32
	pivV               []float64
	lRows              [][]int32
	lMults             [][]float64
	uRowIdx            [][]int32
	uRowVal            [][]float64
	mark               []int32 // column-lookup stamps, indexed by row
	markAt             []int32
	stamp              int32
}

// luArrays is the committed factorization (position space). It is only
// replaced wholesale — on a successful refactor, so a failed rebuild
// keeps the previous representation usable, and by Rewind, which puts
// the frozen one back.
type luArrays struct {
	rowOfPos []int32 // constraint row pivotal at elimination step k
	colOfPos []int32 // basis position eliminated at step k
	posOfRow []int32 // the inverse permutations: posOfRow[rowOfPos[k]] = k,
	posOfCol []int32 // posOfCol[colOfPos[k]] = k
	lPtr     []int32 // L columns: entries at positions > k, unit diagonal implicit
	lIdx     []int32
	lVal     []float64
	uPtr     []int32 // U columns: entries at positions < k
	uIdx     []int32
	uVal     []float64
	uDiag    []float64
	luNNZ    int
}

type luEntry struct {
	row int32
	val float64
}

// luEta is one product-form update: position p's basis column was
// replaced by a column with FTRAN'd direction d (piv = d_p; the
// remaining nonzeros of d live in the factor's shared eta arena at
// [start, end), avoiding per-pivot allocations).
type luEta struct {
	p          int32
	start, end int32
	piv        float64
}

const (
	// luTau is the Markowitz threshold-pivoting factor: a pivot must
	// be at least this fraction of its column's largest magnitude, the
	// classical sparsity/stability compromise.
	luTau = 0.1
	// luSingTol is the absolute singularity floor for a pivot.
	luSingTol = 1e-11
	// luMaxEtas caps the eta file's length regardless of density —
	// refactorization is cheap for these sparse bases, so the cap also
	// bounds error drift tightly.
	luMaxEtas = 32
	// luEtaStabRel: an update pivot smaller than this fraction of its
	// direction's largest entry signals a numerically unsafe eta
	// (error amplification ∝ max|d|/|d_p| per application); the
	// update is refused and the caller refactorizes instead. 1e-4
	// bounds the amplification of machine-precision noise to ~1e-12
	// per eta — comfortably inside the solver's 1e-7 feasibility
	// acceptance — without triggering refactorization storms on the
	// smallish pivots degenerate dual restarts produce; phantom
	// infeasibility from residual drift is additionally re-verified
	// on a fresh factorization before being reported.
	luEtaStabRel = 1e-4
	// luEtaDropRel prunes eta entries below this fraction of the
	// direction's largest magnitude — cancellation noise that would
	// otherwise densify the eta file without carrying information.
	luEtaDropRel = 1e-11
)

func newLUFactor(r *Revised) *luFactor {
	m := r.m
	words := (m + 63) / 64
	return &luFactor{r: r, m: m, borrowed: true, w: make([]float64, m),
		wMark: make([]uint64, words), outMark: make([]uint64, words)}
}

func (f *luFactor) allocScratch() {
	m := f.m
	f.cols = make([][]luEntry, m)
	f.rowsCand = make([][]int32, m)
	f.rowCount = make([]int32, m)
	f.colCount = make([]int32, m)
	f.rowDone = make([]bool, m)
	f.colDone = make([]bool, m)
	f.liveCols = make([]int32, 0, m)
	f.pivR = make([]int32, m)
	f.pivC = make([]int32, m)
	f.pivV = make([]float64, m)
	f.lRows = make([][]int32, m)
	f.lMults = make([][]float64, m)
	f.uRowIdx = make([][]int32, m)
	f.uRowVal = make([][]float64, m)
	f.mark = make([]int32, m)
	f.markAt = make([]int32, m)
}

func newLUArrays(m int) luArrays {
	return luArrays{
		rowOfPos: make([]int32, m),
		colOfPos: make([]int32, m),
		posOfRow: make([]int32, m),
		posOfCol: make([]int32, m),
		uDiag:    make([]float64, m),
		lPtr:     make([]int32, m+1),
		uPtr:     make([]int32, m+1),
	}
}

// refactor computes a fresh LU factorization of the current basis and
// clears the eta file. On a numerically singular basis it returns
// false and leaves the committed factorization (and eta file) intact.
func (f *luFactor) refactor() bool {
	if !f.factorize() {
		return false
	}
	f.commit()
	return true
}

// factorize runs the Markowitz elimination over the current basis into
// the scratch transcript (pivR/pivC/pivV, lRows/lMults, uRowIdx/
// uRowVal) without touching the committed factorization. Returns false
// on a structurally or numerically singular basis.
func (f *luFactor) factorize() bool {
	m := f.m
	if f.cols == nil {
		f.allocScratch()
	}
	for j := 0; j < m; j++ {
		f.cols[j] = f.cols[j][:0]
		f.rowsCand[j] = f.rowsCand[j][:0]
		f.rowDone[j] = false
		f.colDone[j] = false
		f.mark[j] = 0
	}
	f.stamp = 0
	f.liveCols = f.liveCols[:0]
	for j := 0; j < m; j++ {
		jj := int32(j)
		f.liveCols = append(f.liveCols, jj)
		f.r.effCol(f.r.basis[j], func(i int, v float64) {
			if v == 0 {
				return
			}
			f.cols[j] = append(f.cols[j], luEntry{int32(i), v})
			f.rowsCand[i] = append(f.rowsCand[i], jj)
		})
	}
	f.singleCols = f.singleCols[:0]
	f.singleRows = f.singleRows[:0]
	for j := 0; j < m; j++ {
		f.colCount[j] = int32(len(f.cols[j]))
		f.rowCount[j] = int32(len(f.rowsCand[j]))
		if f.colCount[j] == 0 || f.rowCount[j] == 0 {
			return false // structurally singular
		}
		if f.colCount[j] == 1 {
			f.singleCols = append(f.singleCols, int32(j))
		}
		if f.rowCount[j] == 1 {
			f.singleRows = append(f.singleRows, int32(j))
		}
	}
	for k := 0; k < m; k++ {
		pi, pj, pv := f.pickPivot()
		if pi < 0 {
			return false
		}
		f.eliminate(k, pi, pj, pv)
	}
	return true
}

// pickPivot selects the next elimination pivot: pending singleton
// columns and rows first (zero Markowitz cost, no fill), then a full
// Markowitz scan with threshold pivoting. Returns pi = -1 when no
// acceptable pivot remains (numerical singularity).
func (f *luFactor) pickPivot() (pi, pj int32, pv float64) {
	// Singleton columns: the lone entry pivots with no multipliers.
	for len(f.singleCols) > 0 {
		j := f.singleCols[len(f.singleCols)-1]
		f.singleCols = f.singleCols[:len(f.singleCols)-1]
		if f.colDone[j] || f.colCount[j] != 1 {
			continue
		}
		e := f.cols[j][0]
		if math.Abs(e.val) < luSingTol {
			continue // explicit-zero leftover; leave to the full scan
		}
		return e.row, j, e.val
	}
	// Singleton rows: eliminating the pivot column creates no fill
	// because the pivot row has nothing else to spread. Unlike
	// singleton columns (whose lone entry is the only possible pivot
	// for that column), the pivot here divides the rest of its column
	// into L multipliers, so it must pass the same relative threshold
	// the Markowitz scan applies — otherwise an ~1e-9 entry in an
	// O(1) column would seed ~1e9 multipliers into the factors.
	for len(f.singleRows) > 0 {
		i := f.singleRows[len(f.singleRows)-1]
		f.singleRows = f.singleRows[:len(f.singleRows)-1]
		if f.rowDone[i] || f.rowCount[i] != 1 {
			continue
		}
		for _, j := range f.rowsCand[i] {
			if f.colDone[j] {
				continue
			}
			var pv float64
			found := false
			colMax := 0.0
			for _, e := range f.cols[j] {
				if a := math.Abs(e.val); a > colMax {
					colMax = a
				}
				if e.row == i {
					pv = e.val
					found = true
				}
			}
			if found && math.Abs(pv) >= luSingTol && math.Abs(pv) >= luTau*colMax {
				return i, j, pv
			}
		}
		// Tiny, ill-scaled or stale; the full scan deals with the row.
	}
	// Full Markowitz scan: minimize (r_i−1)(c_j−1) over entries that
	// pass the threshold test, breaking ties toward larger magnitude. It
	// walks liveCols in ascending order, dropping the columns eliminated
	// since the last scan as it goes — the same columns in the same
	// order as a walk of all m behind colDone, so the same pivot.
	bestCost := int64(math.MaxInt64)
	bestAbs := 0.0
	pi, pj = -1, -1
	live := f.liveCols
	n := 0
	for t, j := range live {
		if f.colDone[j] {
			continue
		}
		live[n] = j
		n++
		col := f.cols[j]
		colMax := 0.0
		for _, e := range col {
			if a := math.Abs(e.val); a > colMax {
				colMax = a
			}
		}
		thresh := luTau * colMax
		if thresh < luSingTol {
			thresh = luSingTol
		}
		cc := int64(f.colCount[j] - 1)
		for _, e := range col {
			a := math.Abs(e.val)
			if a < thresh {
				continue
			}
			cost := int64(f.rowCount[e.row]-1) * cc
			if cost < bestCost || (cost == bestCost && a > bestAbs) {
				bestCost, bestAbs = cost, a
				pi, pj, pv = e.row, j, e.val
			}
		}
		if bestCost == 0 {
			n += copy(live[n:], live[t+1:])
			break
		}
	}
	f.liveCols = live[:n]
	return pi, pj, pv
}

// eliminate performs elimination step k with pivot (pi, pj, pv):
// records the L multipliers of column pj, moves row pi's active
// entries into the step's U row, and applies the rank-1 fill update
// to the remaining active submatrix.
func (f *luFactor) eliminate(k int, pi, pj int32, pv float64) {
	f.pivR[k], f.pivC[k], f.pivV[k] = pi, pj, pv
	f.rowDone[pi] = true
	f.colDone[pj] = true

	// L multipliers from the pivot column's other entries; the column
	// is retired wholesale.
	lr := f.lRows[k][:0]
	lm := f.lMults[k][:0]
	for _, e := range f.cols[pj] {
		if e.row == pi {
			continue
		}
		lr = append(lr, e.row)
		lm = append(lm, e.val/pv)
		if f.rowCount[e.row]--; f.rowCount[e.row] == 1 {
			f.singleRows = append(f.singleRows, e.row)
		}
	}
	f.lRows[k], f.lMults[k] = lr, lm
	f.cols[pj] = f.cols[pj][:0]

	// Walk the pivot row: each active entry (pi, j') becomes a U-row
	// entry and drives fill into the rows carrying multipliers.
	ur := f.uRowIdx[k][:0]
	uv := f.uRowVal[k][:0]
	for _, j := range f.rowsCand[pi] {
		if f.colDone[j] {
			continue
		}
		col := f.cols[j]
		at := -1
		for t := range col {
			if col[t].row == pi {
				at = t
				break
			}
		}
		if at < 0 {
			continue // stale candidate
		}
		upv := col[at].val
		last := len(col) - 1
		col[at] = col[last]
		col = col[:last]
		f.colCount[j]--
		if upv != 0 {
			ur = append(ur, j)
			uv = append(uv, upv)
			if len(lr) > 0 {
				// Stamp the column's rows for O(1) fill lookups.
				f.stamp++
				for t := range col {
					f.mark[col[t].row] = f.stamp
					f.markAt[col[t].row] = int32(t)
				}
				for t, i2 := range lr {
					delta := -lm[t] * upv
					if f.mark[i2] == f.stamp {
						col[f.markAt[i2]].val += delta
						continue
					}
					col = append(col, luEntry{i2, delta})
					f.mark[i2] = f.stamp
					f.markAt[i2] = int32(len(col) - 1)
					f.colCount[j]++
					f.rowCount[i2]++
					f.rowsCand[i2] = append(f.rowsCand[i2], j)
				}
			}
		}
		f.cols[j] = col
		if f.colCount[j] == 1 {
			f.singleCols = append(f.singleCols, j)
		}
	}
	f.uRowIdx[k], f.uRowVal[k] = ur, uv
}

// commit turns the elimination transcript into the column-wise
// position-space L and U arrays and clears the eta file.
func (f *luFactor) commit() {
	m := f.m
	if f.borrowed {
		// There are no committed arrays yet, or they belong to a frozen
		// snapshot — Rewind puts them back, and forks read them — so
		// allocate fresh storage before the first write.
		f.luArrays = newLUArrays(m)
		f.borrowed = false
	}
	copy(f.rowOfPos, f.pivR)
	copy(f.colOfPos, f.pivC)
	copy(f.uDiag, f.pivV)
	for k := 0; k < m; k++ {
		f.posOfRow[f.pivR[k]] = int32(k)
		f.posOfCol[f.pivC[k]] = int32(k)
	}
	lnnz, unnz := 0, 0
	for k := 0; k < m; k++ {
		lnnz += len(f.lRows[k])
		unnz += len(f.uRowIdx[k])
	}
	if cap(f.lIdx) < lnnz {
		f.lIdx = make([]int32, lnnz)
		f.lVal = make([]float64, lnnz)
	}
	f.lIdx = f.lIdx[:lnnz]
	f.lVal = f.lVal[:lnnz]
	at := int32(0)
	for k := 0; k < m; k++ {
		f.lPtr[k] = at
		for t, i := range f.lRows[k] {
			f.lIdx[at] = f.posOfRow[i]
			f.lVal[at] = f.lMults[k][t]
			at++
		}
	}
	f.lPtr[m] = at

	// U rows were recorded per elimination step against basis-position
	// column ids; regroup them into columns of position space (entry
	// (k, j', v) lands in column posOfCol[j'] at row-position k).
	if cap(f.uIdx) < unnz {
		f.uIdx = make([]int32, unnz)
		f.uVal = make([]float64, unnz)
	}
	f.uIdx = f.uIdx[:unnz]
	f.uVal = f.uVal[:unnz]
	for k := 0; k <= m; k++ {
		f.uPtr[k] = 0
	}
	for k := 0; k < m; k++ {
		for _, j := range f.uRowIdx[k] {
			f.uPtr[f.posOfCol[j]+1]++
		}
	}
	for k := 0; k < m; k++ {
		f.uPtr[k+1] += f.uPtr[k]
	}
	fill := f.markAt[:m] // reuse as per-column fill cursor
	for k := range fill {
		fill[k] = 0
	}
	for k := 0; k < m; k++ {
		for t, j := range f.uRowIdx[k] {
			kc := f.posOfCol[j]
			slot := f.uPtr[kc] + fill[kc]
			f.uIdx[slot] = int32(k)
			f.uVal[slot] = f.uRowVal[k][t]
			fill[kc]++
		}
	}
	f.luNNZ = lnnz + unnz + m
	f.etas = f.etas[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	f.minEtas = 0
}

// ftran solves B·x = src into dst; the two may be the same slice.
func (f *luFactor) ftran(dst, src []float64) {
	w := f.w
	for k, i := range f.rowOfPos {
		w[k] = src[i]
	}
	f.solveLU()
	for i, k := range f.posOfCol {
		dst[i], w[k] = w[k], 0
	}
	f.ftranEtas(dst)
	clear(f.outMark) // the eta file's marks; only solve reads them
}

// solveLU runs the forward L sweep and the backward U sweep over w.
func (f *luFactor) solveLU() {
	w := f.w
	ptr, idx, val := f.lPtr, f.lIdx, f.lVal
	for k := range w {
		t := w[k]
		if t == 0 {
			continue
		}
		for s := ptr[k]; s < ptr[k+1]; s++ {
			w[idx[s]] -= val[s] * t
		}
	}
	ptr, idx, val = f.uPtr, f.uIdx, f.uVal
	for k := len(w) - 1; k >= 0; k-- {
		t := w[k]
		if t == 0 {
			continue
		}
		t /= f.uDiag[k]
		w[k] = t
		for s := ptr[k]; s < ptr[k+1]; s++ {
			w[idx[s]] -= val[s] * t
		}
	}
}

// ftranEtas applies the eta file to v, oldest eta first, marking in
// outMark every position an eta writes.
func (f *luFactor) ftranEtas(v []float64) {
	out := f.outMark
	for ei := range f.etas {
		e := &f.etas[ei]
		t := v[e.p]
		if t == 0 {
			continue
		}
		t /= e.piv
		v[e.p] = t
		for s := e.start; s < e.end; s++ {
			i := f.etaIdx[s]
			v[i] -= f.etaVal[s] * t
			out[i>>6] |= 1 << (i & 63)
		}
	}
}

// ftranCol solves B·x = A_j for the effective column j into dst, which is
// zero outside its nonzero list idx, and returns the new list (see solve).
func (f *luFactor) ftranCol(j int, dst []float64, idx []int32) []int32 {
	f.r.effCol(j, f.add)
	return f.solve(dst, idx)
}

// ftranRows solves B·x = src for a right-hand side that is zero outside
// rows (each listed once; src is read there only) into dst, which is zero
// outside its nonzero list idx, and returns the new list (see solve).
func (f *luFactor) ftranRows(rows []int32, src, dst []float64, idx []int32) []int32 {
	for _, i := range rows {
		f.add(int(i), src[i])
	}
	return f.solve(dst, idx)
}

// ftranRowsAt is ftranRows against the factor as it stood when the eta
// file held its first n etas: the steepest-edge update of a pivot whose
// eta is already filed solves τ on the basis before that pivot.
func (f *luFactor) ftranRowsAt(n int, rows []int32, src, dst []float64, idx []int32) []int32 {
	etas := f.etas
	f.etas = etas[:n]
	idx = f.ftranRows(rows, src, dst, idx)
	f.etas = etas
	return idx
}

// add adds v to row i of the right-hand side the next solve solves,
// marking its position.
func (f *luFactor) add(i int, v float64) {
	k := f.posOfRow[i]
	f.w[k] += v
	f.wMark[k>>6] |= 1 << (k & 63)
}

// solve finishes the sparse FTRAN of what add placed in w: the L sweep
// ascends and the U sweep descends over the marked positions only, marking
// every position they write; the gather moves them into dst, clearing w,
// and marks them in outMark, as the eta file does the positions it writes.
// dst must be zero outside idx, its nonzero list: solve zeroes it there
// first, and appends to idx[:0] the positions of the result's nonzeros,
// ascending, read off outMark — after the eta file, which can fill a
// position the base solve left at 0 or cancel one it did not. It leaves w
// zero and both bitsets empty.
func (f *luFactor) solve(dst []float64, idx []int32) []int32 {
	for _, i := range idx {
		dst[i] = 0
	}
	idx = idx[:0]
	w, mark := f.w, f.wMark
	ptr, ix, val := f.lPtr, f.lIdx, f.lVal
	for b := range mark {
		for word := mark[b]; word != 0; {
			z := bits.TrailingZeros64(word)
			if k := b<<6 | z; w[k] != 0 {
				t := w[k]
				for s := ptr[k]; s < ptr[k+1]; s++ {
					i := ix[s]
					w[i] -= val[s] * t
					mark[i>>6] |= 1 << (i & 63)
				}
			}
			word = mark[b] &^ (uint64(2)<<z - 1) // L writes only later positions
		}
	}
	ptr, ix, val = f.uPtr, f.uIdx, f.uVal
	for b := len(mark) - 1; b >= 0; b-- {
		for word := mark[b]; word != 0; {
			z := 63 - bits.LeadingZeros64(word)
			if k := b<<6 | z; w[k] != 0 {
				t := w[k] / f.uDiag[k]
				w[k] = t
				for s := ptr[k]; s < ptr[k+1]; s++ {
					i := ix[s]
					w[i] -= val[s] * t
					mark[i>>6] |= 1 << (i & 63)
				}
			}
			word = mark[b] & (uint64(1)<<z - 1) // U writes only earlier positions
		}
	}
	out := f.outMark
	for b, word := range mark {
		for ; word != 0; word &= word - 1 {
			k := b<<6 | bits.TrailingZeros64(word)
			i := f.colOfPos[k]
			dst[i], w[k] = w[k], 0
			out[i>>6] |= 1 << (i & 63)
		}
		mark[b] = 0
	}
	f.ftranEtas(dst)
	for b, word := range out {
		for ; word != 0; word &= word - 1 {
			if i := b<<6 | bits.TrailingZeros64(word); dst[i] != 0 {
				idx = append(idx, int32(i))
			}
		}
		out[b] = 0
	}
	return idx
}

// btran solves Bᵀ·y = v in place.
func (f *luFactor) btran(v []float64) {
	for ei := len(f.etas) - 1; ei >= 0; ei-- {
		e := &f.etas[ei]
		s := v[e.p]
		for t := e.start; t < e.end; t++ {
			s -= v[f.etaIdx[t]] * f.etaVal[t]
		}
		v[e.p] = s / e.piv
	}
	w := f.w
	for k, p := range f.colOfPos {
		w[k] = v[p]
	}
	f.solveUtLt(0)
	for i, k := range f.posOfRow {
		v[i], w[k] = w[k], 0
	}
}

// btranRow computes ρ = eₚᵀB⁻¹, row p of B⁻¹ — the vector both simplex
// methods price the leaving row with — into rho, and in the one pass
// that writes it out also appends the ascending positions of its
// nonzeros to idx and returns ‖ρ‖², the row's exact steepest-edge weight.
// The eta file applied to a unit vector can only fill the positions its
// own pivots sit at, so e_p and those entries are placed directly in
// position space (w is zero between solves) and the Uᵀ sweep starts at
// the earliest of them.
func (f *luFactor) btranRow(p int, rho []float64, idx []int32) ([]int32, float64) {
	w, pos := f.w, f.posOfCol
	from := int(pos[p])
	w[from] = 1
	for ei := len(f.etas) - 1; ei >= 0; ei-- {
		e := &f.etas[ei]
		k := int(pos[e.p])
		s := w[k]
		for t := e.start; t < e.end; t++ {
			s -= w[pos[f.etaIdx[t]]] * f.etaVal[t]
		}
		s /= e.piv
		w[k] = s
		if s != 0 {
			from = min(from, k)
		}
	}
	f.solveUtLt(from)
	gamma := 0.0
	for i, k := range f.posOfRow {
		x := w[k]
		rho[i], w[k] = x, 0
		if x != 0 {
			idx = append(idx, int32(i))
			gamma += x * x
		}
	}
	return idx, gamma
}

// solveUtLt runs the forward Uᵀ sweep and the backward Lᵀ sweep over w,
// which holds nothing but zeros before position from.
func (f *luFactor) solveUtLt(from int) {
	w := f.w
	ptr, idx, val := f.uPtr, f.uIdx, f.uVal
	for k := from; k < len(w); k++ {
		s := w[k]
		for t := ptr[k]; t < ptr[k+1]; t++ {
			s -= val[t] * w[idx[t]]
		}
		w[k] = s / f.uDiag[k]
	}
	ptr, idx, val = f.lPtr, f.lIdx, f.lVal
	for k := len(w) - 1; k >= 0; k-- {
		s := w[k]
		for t := ptr[k]; t < ptr[k+1]; t++ {
			s -= val[t] * w[idx[t]]
		}
		w[k] = s
	}
}

// update absorbs the pivot that replaces position p's basis column
// with the column whose FTRAN'd direction is d (nonzeros listed in idx),
// as one more eta. With force=false it refuses a pivot it considers
// numerically unsafe (returns false, state unchanged) — the caller then
// refactorizes; force=true always applies.
func (f *luFactor) update(p int, d []float64, idx []int32, force bool) bool {
	piv := d[p]
	start := int32(len(f.etaIdx))
	dmax := 0.0
	for _, i := range idx {
		if a := math.Abs(d[i]); a > dmax {
			dmax = a
		}
	}
	if !force {
		if apiv := math.Abs(piv); apiv < luSingTol || apiv < luEtaStabRel*dmax {
			return false
		}
	}
	// Solved directions carry a tail of cancellation junk around
	// machine precision; dropping entries below luEtaDropRel·max|d|
	// keeps the eta sparse at an error per application far below the
	// solver's feasibility tolerance (xb itself is maintained from
	// the full direction and re-derived exactly at refactorization).
	drop := luEtaDropRel * dmax
	for _, i := range idx {
		if v := d[i]; int(i) != p && (v > drop || v < -drop) {
			f.etaIdx = append(f.etaIdx, i)
			f.etaVal = append(f.etaVal, v)
		}
	}
	f.etas = append(f.etas, luEta{p: int32(p), piv: piv, start: start, end: int32(len(f.etaIdx))})
	return true
}

// shouldRefactor reports that the eta file is past its length or
// density budget and wants a rebuild at the next pivot boundary.
func (f *luFactor) shouldRefactor() bool {
	if len(f.etas) < f.minEtas {
		return false
	}
	return len(f.etas) >= luMaxEtas || len(f.etaIdx) > 2*(f.luNNZ+f.m)
}

// deferRefactor is called when a wanted refactorization found the
// basis momentarily singular: back off so the next attempt happens
// after another batch of updates rather than on every pivot.
func (f *luFactor) deferRefactor() { f.minEtas = len(f.etas) + luMaxEtas }
