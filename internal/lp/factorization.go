package lp

import (
	"errors"
	"math"
	"slices"
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

	nstruct, m      int
	ncols, artStart int
	c               []float64 // phase-2 costs (structural prefix of column space)
	costCols        []int32   // the structural columns with c_j != 0, ascending
	costScale       float64

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
	fz.m = len(p.rows)
	fz.artStart = fz.sp.n
	fz.ncols = fz.sp.n + fz.m
	fz.c = make([]float64, fz.artStart)
	copy(fz.c, p.c)
	for j, cj := range fz.c {
		if a := math.Abs(cj); a > fz.costScale {
			fz.costScale = a
		}
		if cj != 0 {
			fz.costCols = append(fz.costCols, int32(j))
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

// frozenState is a context's rewind point: the clean LU of the basis it
// stood on when Freeze ran, and the simplex state that goes with it —
// basis, at-upper statuses, row signs, steepest-edge weights, the
// reduced costs derived from that clean LU and, with a live
// factorization, the start.
// Nothing writes the LU arrays afterwards — luFactor.update only appends
// to a context's private eta file, and commit allocates fresh storage
// while the borrowed flag is set — so the context and any number of its
// forks FTRAN/BTRAN against them concurrently. The state slices are the
// context's own, overwritten by its next Freeze, which is why Fork
// copies them; each Freeze allocates a new start and nothing writes it
// after, so forks share it.
type frozenState struct {
	gen uint64
	luArrays
	basis                   []int
	upper                   []int32 // the columns resting at their upper bound, ascending
	sign, dseW, dj          []float64
	dseOK, djOK, factorized bool
	start                   *frozenStart
}

// frozenStart is the state the first solve after a Freeze or Rewind
// starts from: the effective rhs and structural bounds (u: U of the
// structural columns), the basic values computeXB gives on the clean LU,
// the infeasibility set, residue and entry verdict over them, the
// solution they extract to, and each structural column's basis row.
type frozenStart struct {
	b, lbs, u, xb        []float64
	infeas               []uint64
	sol                  Solution
	rowOf                []int32 // -1: nonbasic
	residue              float64
	overWide, overNarrow bool // priceScan(dualTol, eps)
}

// pathBudgetPairs is a context's pivot-path cache budget in index-value
// pairs (12 bytes each) per 2m + n, the most one entry holds (n priced
// columns): the cache's storage, capacity included, stays within
// pathBudgetPairs·(2m + n) pairs' bytes. DESIGN.md "Pivot path: what a
// dual pivot touches" gives the repeat rates and the memory it was sized
// on.
const pathBudgetPairs = 32

// pathEntryBytes is what an entry's header costs the budget: at least
// its size, which a test holds.
const pathEntryBytes = 56

// pathCache is a context's pivot-path cache. While the live factor is the
// frozen LU plus only the etas a solve's own dual pivots appended since
// it left the frozen state (onFrozenFactor), the basis, the row signs and
// the eta file are functions of the frozen state and the path those
// pivots took, and so is what the next dual pivot leaving by row r
// computes before it pivots: ρ_r = e_rᵀB⁻¹ with its list and ‖ρ_r‖², the
// scatter's candidate list with each α (the side orients α), and
// τ_r = B⁻¹ρ_r for the steepest-edge update. The cache keeps that per
// entry, keyed by the path (pathKey), for the frozen state start names.
// Entries are sparse, their lists and values in two arenas, and found
// through an open-addressed index of their keys. A Freeze empties it, and so does a lookup under
// another start (a fork reforked onto a newer Freeze); the storage stays,
// so a context that has seen its largest entries allocates nothing more.
// The storage's capacity stays within budget bytes: the first entry or τ
// that does not fit leaves the cache full, filing nothing more until it
// is emptied.
type pathCache struct {
	start  *frozenStart
	budget int
	full   bool
	ents   []pathEntry
	slots  []int32 // entry+1 at each key's probe position, 0 empty; a power of two over twice the entries
	idx    []int32
	val    []float64
}

// pathKey names a pivot on a path: its parent entry (-1: the frozen
// state), the column the parent's pivot entered, and the row and side
// this pivot leaves by.
type pathKey struct {
	parent, enter, row int32
	below              bool
}

// pathEntry is one cache entry: its key, ‖ρ‖², and the [from, to) spans
// of the arenas that hold ρ, the candidates with α and, once tauOK, τ.
type pathEntry struct {
	pathKey
	tauOK          bool
	gamma          float64
	rho, cand, tau [2]int32
}

// reset empties the cache, keeping its storage.
func (c *pathCache) reset() {
	clear(c.slots)
	c.start, c.full, c.ents, c.idx, c.val = nil, false, c.ents[:0], c.idx[:0], c.val[:0]
}

// probe returns the index slot that holds k's entry or, when none does,
// the empty slot where it goes.
func (c *pathCache) probe(k pathKey) int {
	h := uint32(k.parent)*0x9e3779b1 ^ uint32(k.enter)*0x85ebca77 ^ uint32(k.row)*0xc2b2ae3d
	if k.below {
		h = ^h
	}
	mask := len(c.slots) - 1
	for s := int(h^h>>15) & mask; ; s = (s + 1) & mask {
		if e := c.slots[s] - 1; e < 0 || c.ents[e].pathKey == k {
			return s
		}
	}
}

// find returns k's entry under start, or -1; a cache filed under another
// start is emptied first.
func (c *pathCache) find(start *frozenStart, k pathKey) int {
	if c.start != start {
		c.reset()
		c.start = start
	}
	if len(c.slots) == 0 {
		return -1
	}
	return int(c.slots[c.probe(k)]) - 1
}

// file adds k's entry, which find just missed — ρ with its list and ‖ρ‖²,
// the candidates with α — and returns it, or -1 when it does not fit.
func (c *pathCache) file(k pathKey, gamma float64, rhoIdx []int32, rho []float64, cands []int32, alpha []float64) int {
	if !c.fits(1, len(rhoIdx)+len(cands)) {
		return -1
	}
	c.ents = append(c.ents, pathEntry{pathKey: k, gamma: gamma, rho: c.put(rhoIdx, rho), cand: c.put(cands, alpha)})
	c.slots[c.probe(k)] = int32(len(c.ents))
	return len(c.ents) - 1
}

// fileTau files τ, listed by idx, in entry e when it fits.
func (c *pathCache) fileTau(e int, idx []int32, tau []float64) {
	if c.fits(0, len(idx)) {
		c.ents[e].tau, c.ents[e].tauOK = c.put(idx, tau), true
	}
}

// fits reports whether n more entries and pairs more arena pairs fit the
// budget, and grows the storage to hold them: the index to a power of two
// over twice the entries, the entries and the arenas to at most twice
// what they hold, within what the budget leaves. A refusal fills the
// cache.
func (c *pathCache) fits(n, pairs int) bool {
	ne, np := len(c.ents)+n, len(c.idx)+pairs
	ns := max(len(c.slots), 16)
	for ns < 2*ne {
		ns *= 2
	}
	ce, cp := max(cap(c.ents), ne), max(cap(c.idx), np)
	left := c.budget - pathEntryBytes*ce - 4*ns - 12*cp
	if c.full || left < 0 {
		c.full = true
		return false
	}
	if ce > cap(c.ents) {
		ce += min(ne, left/pathEntryBytes)
		left -= pathEntryBytes * (ce - ne)
		c.ents = append(make([]pathEntry, 0, ce), c.ents...)
	}
	if cp > cap(c.idx) {
		cp += min(np, left/12)
		c.idx, c.val = append(make([]int32, 0, cp), c.idx...), append(make([]float64, 0, cp), c.val...)
	}
	if ns > len(c.slots) {
		c.slots = make([]int32, ns)
		for e := range c.ents {
			c.slots[c.probe(c.ents[e].pathKey)] = int32(e + 1)
		}
	}
	return true
}

// put appends v at the listed positions to the arenas and returns the span.
func (c *pathCache) put(idx []int32, v []float64) [2]int32 {
	from := len(c.idx)
	c.idx = append(c.idx, idx...)
	for _, i := range idx {
		c.val = append(c.val, v[i])
	}
	return [2]int32{int32(from), int32(len(c.idx))}
}

// load writes span s into v, which is zero outside its list old, zeroing
// it there first, and returns the new list in old's storage: v is then
// zero outside it again, as a sparse solve would leave it.
func (c *pathCache) load(s [2]int32, v []float64, old []int32) []int32 {
	for _, i := range old {
		v[i] = 0
	}
	idx := c.idx[s[0]:s[1]]
	for t, i := range idx {
		v[i] = c.val[int(s[0])+t]
	}
	return append(old[:0], idx...)
}

// cands writes entry e's α into alpha at its candidates and returns them,
// read-only.
func (c *pathCache) cands(e int, alpha []float64) []int32 {
	s := c.ents[e].cand
	idx := c.idx[s[0]:s[1]:s[1]]
	for t, j := range idx {
		alpha[j] = c.val[int(s[0])+t]
	}
	return idx
}

// Freeze makes the context's current state the one Rewind returns to
// and forks are born on. It is a no-op while nothing has solved since
// the last Freeze or Rewind (gen counts solves; any solve may move the
// basis). Otherwise the live factor itself becomes the snapshot — it is
// refactorized first only if it carries an eta file — its committed
// arrays are marked borrowed, and the reduced costs are recomputed once
// from it, so every solve that starts here reads the same exact vector;
// steepest-edge weights the context lacks are computed exactly from it
// too.
// With a live factorization it also records the start, at one computeXB
// and one priceScan, from which a solve then starts at the cost of what
// moved since (startFrozen).
func (r *Revised) Freeze() error {
	r.settleDSE() // the frozen copy takes the weights
	fz := &r.frozen
	if fz.basis != nil && fz.gen == r.gen {
		return nil
	}
	r.paths.reset()
	if r.factorized && len(r.fac.etas) > 0 && !r.refactorize() {
		return errors.New("lp: Freeze: current basis is numerically singular")
	}
	if r.factorized {
		if !r.dseOK {
			r.initDSE() // so no solve from here starts from a reset
		}
		r.computeDJ()
	}
	r.fac.borrowed = true
	fz.gen, fz.luArrays = r.gen, r.fac.luArrays
	fz.basis = append(fz.basis[:0], r.basis...)
	fz.upper = fz.upper[:0]
	for j, up := range r.atUpper {
		if up {
			fz.upper = append(fz.upper, int32(j))
		}
	}
	fz.sign = append(fz.sign[:0], r.sign...)
	fz.dseW = append(fz.dseW[:0], r.dseW...)
	fz.dj = append(fz.dj[:0], r.dj...)
	fz.dseOK, fz.djOK, fz.factorized = r.dseOK, r.djOK, r.factorized
	fz.start = nil
	r.xMoved.setWhole()
	if r.factorized && r.rhsOK {
		r.computeXB()
		st := &frozenStart{b: slices.Clone(r.b), lbs: slices.Clone(r.lbs), u: slices.Clone(r.U[:r.nstruct]),
			xb: slices.Clone(r.xb), infeas: slices.Clone(r.infeas), rowOf: slices.Repeat([]int32{-1}, r.nstruct),
			sol: Solution{Status: Optimal, X: make([]float64, r.nstruct)}, residue: r.artificialResidue()}
		for i, bj := range r.basis {
			if bj < r.nstruct {
				st.rowOf[bj] = int32(i)
			}
		}
		r.extractX(st.sol.X)
		st.sol.Objective = r.objective(st.sol.X)
		st.overWide, st.overNarrow = r.priceScan(r.dualTol(), eps)
		fz.start = st
	}
	r.redrift()
	r.movedRows.open() // the state is the frozen one
	r.movedCols.open()
	return nil
}

// Rewind returns the context to its frozen state with no allocation and
// no refactorization, by undoing the moved journal: it aliases the frozen
// LU arrays again and empties the eta file, then puts back what the
// journal lists — the reduced costs whole once a column is listed (a dual
// pivot rewrites a dense share of them; DESIGN.md "Serving: the frozen
// state and its journal") — or, when it is whole, copies the frozen state
// back in O(m + ncols). The journal stays as it was, so Moved still tells
// the last solve. Every solve after a Rewind therefore starts where the
// first one after Freeze did, whatever was solved in between and however
// it ended; the owning Problem's rhs and bounds are the caller's to put
// back.
func (r *Revised) Rewind() {
	fz := &r.frozen
	if fz.basis == nil {
		panic("lp: Rewind before Freeze")
	}
	r.pend.on = false // it would write only rows the journal puts back
	f := r.fac
	f.luArrays, f.borrowed = fz.luArrays, true
	f.etas, f.etaIdx, f.etaVal, f.minEtas = f.etas[:0], f.etaIdx[:0], f.etaVal[:0], 0
	if r.movedRows.whole() {
		r.setBasis(fz.basis)
		clear(r.atUpper)
		// b holds under the signs it was computed with, and the drift journal
		// is rebuilt by a full refresh.
		r.rhsOK = r.rhsOK && slices.Equal(r.sign, fz.sign) && (!r.driftRows.whole() || fz.start == nil)
		copy(r.sign, fz.sign)
		copy(r.dseW, fz.dseW)
		copy(r.dj, fz.dj)
		if fz.start != nil {
			copy(r.xb, fz.start.xb)
			copy(r.infeas, fz.start.infeas)
		}
		r.xMoved.setWhole()
	} else {
		// A listed column basic at the Freeze left from a listed row: clear
		// the listed columns, then set the listed rows' frozen ones.
		for _, j := range r.movedCols.list {
			r.inBasis[j], r.atUpper[j] = false, false
		}
		for _, i := range r.movedRows.list {
			bj := fz.basis[i]
			r.basis[i], r.inBasis[bj] = bj, true
			r.xb[i], r.dseW[i] = fz.start.xb[i], fz.dseW[i]
			w, bit := i>>6, uint64(1)<<(i&63)
			r.infeas[w] = r.infeas[w]&^bit | fz.start.infeas[w]&bit
		}
		if len(r.movedCols.list) > 0 {
			copy(r.dj, fz.dj)
		}
	}
	for _, j := range fz.upper {
		r.atUpper[j] = true
	}
	r.djOK, r.dseOK, r.factorized, r.gen = fz.djOK, fz.dseOK, fz.factorized, fz.gen
}

// Fork returns a new solve context over the same constraint structure,
// born frozen on this instance's snapshot: it allocates the context — a
// cloned Problem (so rhs/bound mutations stay local), the basis state,
// statistics and scratch, but no LU arrays and no elimination scratch
// until it refactorizes — and brings it onto the snapshot with Refork.
// It shares the immutable Factorization and the frozen LU arrays and owns
// private copies of everything else. The fork is O(m + nnz) — no pivots,
// no phase-1: its first solve continues from the parent's basis with zero
// lost warmth, exactly as the parent itself would, and Rewind means the
// same thing on it as on the parent. Stats.Forks counts the contexts Fork
// allocates; a Refork is not one.
//
// Fork must be called while the parent is quiescent (no solve in
// flight and no other goroutine mutating it); the forks themselves may
// then solve concurrently with each other and with the parent, because
// they share only read-only state. Fork may refactorize the parent once
// per generation (Freeze); a fork's solves never touch it.
//
// Forking an instance that has never solved returns an error; forking
// one whose last verdict dropped the live factorization (for example
// Infeasible) returns a context that warm-starts through the ordinary
// basis-install path instead of the shared snapshot.
func (r *Revised) Fork() (*Revised, error) {
	f := &Revised{Factorization: r.Factorization, p: r.p.clone(), signInit: true}
	f.alloc()
	if err := r.Refork(f); err != nil {
		return nil, err
	}
	r.stats.Forks++
	return f, nil
}

// Refork brings f, a context Fork split off r, onto r's current frozen
// state in place, so that it answers what a fresh Fork would, bit for bit,
// without allocating one. Same conditions as Fork: r quiescent, f idle. It
// zeroes f's statistics. When f already stands rewound on the snapshot of
// r's current Freeze (each Freeze records a start of its own, which the
// forks born on it share) that is all: f keeps its refresh state and drift
// journal, so its next solve refreshes only what its last one changed, and
// its Problem must hold what r's did when f was last forked or reforked —
// what a retracted what-if leaves. Otherwise it copies r's frozen basis,
// at-upper set, row signs, steepest-edge weights and reduced costs, and
// r's Problem's rhs and bounds, into f's own storage, and rewinds f onto
// them with a whole moved journal, so Rewind copies every vector back,
// leaving a full refresh to its next solve: O(m + ncols), no allocation
// once f's slices have grown.
func (r *Revised) Refork(f *Revised) error {
	if !r.signInit {
		return errors.New("lp: Fork before first solve")
	}
	if err := r.Freeze(); err != nil {
		return err
	}
	f.stats = Stats{}
	fz, ffz := &r.frozen, &f.frozen
	if fz.start != nil && ffz.start == fz.start && f.gen == fz.gen {
		return nil
	}
	basis, upper, sign, dseW, dj := ffz.basis, ffz.upper, ffz.sign, ffz.dseW, ffz.dj
	*ffz = *fz
	ffz.basis = append(basis[:0], fz.basis...)
	ffz.upper = append(upper[:0], fz.upper...)
	ffz.sign = append(sign[:0], fz.sign...)
	ffz.dseW = append(dseW[:0], fz.dseW...)
	ffz.dj = append(dj[:0], fz.dj...)
	for i := range f.p.rows {
		f.p.rows[i].rhs = r.p.rows[i].rhs
	}
	copy(f.p.lb, r.p.lb)
	copy(f.p.ub, r.p.ub)
	f.rhsOK = false // f's Problem changed behind its change list
	f.wholeMoved()  // nothing f wrote is listed against r's frozen state
	f.Rewind()
	return nil
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
