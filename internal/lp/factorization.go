package lp

import (
	"errors"
	"math"
)

// Factorization is the immutable half of a Revised instance:
// everything derived from the frozen constraint structure at
// construction time. A Revised embeds a *Factorization, and Fork
// creates sibling contexts sharing the same one, so every field here
// must be read-only after newFactorization returns — concurrent
// forked solves read it without synchronization. Per-solve state
// (bounds, basis, factorized representation, pricing weights,
// scratch) lives on Revised itself; there are deliberately no lazy
// caches here (the phase-1 cost vector, historically built on first
// use, is built eagerly for exactly that reason).
type Factorization struct {
	sp         sparseCols
	slackOfRow []int
	slackCoef  []float64

	nstruct, nslack, m int
	ncols, artStart    int
	c                  []float64 // phase-2 costs (structural prefix of column space)
	costScale          float64

	// rowCols is the row-wise (CSR) view of the structural+slack
	// column space: the columns with a nonzero in each constraint
	// row. The dual simplex uses it to price only the columns that
	// intersect the (sparse) leaving row instead of scanning the full
	// column space every pivot. Built once — the structure is frozen.
	rowCols [][]int32
	rowVals [][]float64

	c2 []float64 // phase-2 costs over the full column space
	c1 []float64 // phase-1 costs (artificials at -1), built eagerly
}

// newFactorization builds the shared immutable half of a Revised
// instance from p's current rows. It snapshots the objective: the
// warm-start contract freezes coefficients along with the structure,
// only rhs and bounds may change afterwards.
func newFactorization(p *Problem) *Factorization {
	fz := &Factorization{}
	fz.sp, fz.slackOfRow, fz.slackCoef = newSparseCols(p)
	fz.nstruct = p.nvars
	fz.nslack = fz.sp.n - p.nvars
	fz.m = len(p.rows)
	fz.artStart = fz.sp.n
	fz.ncols = fz.sp.n + fz.m
	fz.c = make([]float64, fz.artStart)
	copy(fz.c, p.c)
	for _, cj := range fz.c {
		if a := math.Abs(cj); a > fz.costScale {
			fz.costScale = a
		}
	}
	fz.c2 = make([]float64, fz.ncols)
	copy(fz.c2, fz.c)
	fz.c1 = make([]float64, fz.ncols)
	for j := fz.artStart; j < fz.ncols; j++ {
		fz.c1[j] = -1
	}
	// Row-major mirror of the CSC store (column indices and values per
	// row): dualCandidates prices a sparse leaving row by scattering
	// along these rows instead of gathering down every column.
	fz.rowCols = make([][]int32, fz.m)
	fz.rowVals = make([][]float64, fz.m)
	for j := 0; j < fz.sp.n; j++ {
		for t := fz.sp.colPtr[j]; t < fz.sp.colPtr[j+1]; t++ {
			i := fz.sp.rowIdx[t]
			fz.rowCols[i] = append(fz.rowCols[i], int32(j))
			fz.rowVals[i] = append(fz.rowVals[i], fz.sp.val[t])
		}
	}
	return fz
}

// frozenLU is an immutable clean-LU snapshot of a parent context's
// basis: the committed factorization arrays a borrowed luFactor
// aliases read-only. Nothing writes these arrays after freeze returns
// — luFactor.update only appends to the fork's private eta file, and
// commit reallocates before its first write when the borrowed flag is
// set — so any number of forked contexts FTRAN/BTRAN against one
// snapshot concurrently.
type frozenLU struct {
	gen                uint64
	rowOfPos, colOfPos []int32
	lPtr, lIdx         []int32
	lVal               []float64
	uPtr, uIdx         []int32
	uVal               []float64
	uDiag              []float64
	luNNZ              int
}

// freeze returns the clean-LU snapshot of the current basis, building
// it only when the cached one is stale (gen counts solves; any solve
// may move the basis). The snapshot is factorized by a private
// luFactor whose committed arrays are stolen wholesale — the borrowed
// flag makes its next commit allocate fresh storage instead of
// overwriting what forks now share.
func (r *Revised) freeze() (*frozenLU, error) {
	if r.frozen != nil && r.frozen.gen == r.gen {
		return r.frozen, nil
	}
	if r.freezer == nil {
		r.freezer = newLUFactor(r)
	}
	if !r.freezer.factorize() {
		return nil, errors.New("lp: Fork: current basis is numerically singular")
	}
	r.freezer.commit()
	fz := &frozenLU{
		gen:      r.gen,
		rowOfPos: r.freezer.rowOfPos,
		colOfPos: r.freezer.colOfPos,
		lPtr:     r.freezer.lPtr,
		lIdx:     r.freezer.lIdx,
		lVal:     r.freezer.lVal,
		uPtr:     r.freezer.uPtr,
		uIdx:     r.freezer.uIdx,
		uVal:     r.freezer.uVal,
		uDiag:    r.freezer.uDiag,
		luNNZ:    r.freezer.luNNZ,
	}
	r.freezer.borrowed = true
	r.frozen = fz
	return fz, nil
}

// Fork returns a new solve context over the same constraint structure:
// it shares this instance's immutable Factorization (and, when the
// instance holds a live factorized basis, an immutable clean-LU
// snapshot of it), while owning private copies of everything mutable —
// a cloned Problem (so rhs/bound mutations stay local), the basis and
// bound state, pricing weights, statistics and scratch. The fork is
// O(m + nnz) — no pivots, no phase-1: its first solve continues from
// the parent's basis with zero lost warmth, exactly as the parent
// itself would.
//
// Fork must be called while the parent is quiescent (no solve in
// flight and no other goroutine mutating it); the forks themselves may
// then solve concurrently with each other and with the parent, because
// they share only read-only state. The parent is never mutated by a
// fork's solves — its next solve, and snapshots taken from it, are
// bit-identical to what they would have been without the fork.
//
// Forking an instance that has never solved returns an error; forking
// one whose last verdict dropped the live factorization (for example
// Infeasible) returns a context that warm-starts through the ordinary
// basis-install path instead of the shared snapshot.
func (r *Revised) Fork() (*Revised, error) {
	if !r.signInit {
		return nil, errors.New("lp: Fork before first solve")
	}
	f := &Revised{Factorization: r.Factorization, p: r.p.clone()}
	f.sign = append([]float64(nil), r.sign...)
	f.signInit = true
	f.basis = append([]int(nil), r.basis...)
	f.inBasis = append([]bool(nil), r.inBasis...)
	f.atUpper = append([]bool(nil), r.atUpper...)
	f.lbs = make([]float64, r.nstruct)
	f.U = make([]float64, r.ncols)
	for j := range f.U {
		f.U[j] = math.Inf(1)
	}
	f.xb = make([]float64, r.m)
	f.b = make([]float64, r.m)
	f.dwCol = make([]float64, r.ncols)
	f.dseW = make([]float64, r.m)
	if r.factorized {
		fz, err := r.freeze()
		if err != nil {
			return nil, err
		}
		f.fac = newBorrowedLUFactor(f, fz)
		f.factorized = true
		if r.dseOK {
			copy(f.dseW, r.dseW)
			f.dseOK = true
		}
	} else {
		// No live factorization to share: the fork still carries the
		// parent's last basis and installs it (or a caller-supplied
		// one) through the normal warm path on first solve.
		f.fac = newLUFactor(f)
	}
	f.allocScratch()
	r.stats.Forks++
	return f, nil
}

// Problem returns the Problem this context solves. For a forked
// context this is the private clone Fork made — mutate its rhs and
// bounds freely without affecting the parent or sibling forks.
func (r *Revised) Problem() *Problem { return r.p }

// clone returns a Problem with independent objective, bound and rhs
// storage over the same (frozen) constraint rows; the per-row term
// slices are shared, which is safe because AddConstraint copies terms
// in and nothing mutates them afterwards.
func (p *Problem) clone() *Problem {
	rows := make([]row, len(p.rows))
	copy(rows, p.rows)
	return &Problem{
		nvars: p.nvars,
		c:     append([]float64(nil), p.c...),
		lb:    append([]float64(nil), p.lb...),
		ub:    append([]float64(nil), p.ub...),
		rows:  rows,
	}
}
