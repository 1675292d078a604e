package lp

import (
	"math"
	"sync/atomic"
)

// Revised is a revised-simplex solve context bound to one Problem.
// It keeps the constraint matrix (in sparse column form), the basis
// and a factorized representation of the basis matrix alive across
// solves, which is what makes warm starts cheap: after an RHS or
// variable-bound mutation
// (Problem.SetRHS / Problem.SetVarBounds), SolveFrom(basis) restarts
// the dual simplex from a previous optimal basis instead of running a
// full phase-1/phase-2 pass. When the supplied basis is the one the
// instance ended its previous solve with — the common case for
// branch-and-bound depth-first descents and LPRR pin sequences — the
// live factorization is reused without a rebuild.
//
// Structurally the instance is two halves (see factorization.go): the
// embedded *Factorization holds everything derived from the frozen
// constraint structure — immutable after construction and shared
// read-only between this context and every context Fork returns — and
// the fields declared here hold all per-solve mutable state: the
// owning Problem (whose rhs and bounds the warm-start contract lets
// callers mutate), the basis and its factorization, bound state,
// pricing weights, statistics, and every scratch vector.
//
// The basis is represented as a sparse LU factorization maintained
// across pivots by a product-form eta file (luFactor, lu.go). The
// Basis snapshots returned to callers record the simplex state, not
// the factorization, so they warm-start any instance built over the
// same constraint structure.
//
// Pricing is devex (reference-framework weights, Harris-style
// approximation of steepest edge) in the primal simplex and exact
// Forrest–Goldfarb steepest edge in the dual, whose ratio test is
// bound-flipping (long-step); both switch to Bland's anti-cycling rule
// on objective stalls, as they have since the Dantzig era. The dual
// carries its reduced costs (dj) across pivots, solves, Freeze and
// Rewind instead of re-deriving them from the multipliers.
//
// Variable bounds are handled natively by the bounded-variable
// simplex: lower bounds are shifted away per solve, each nonbasic
// column rests at one of its bounds (atUpper tracks which), the
// ratio tests are two-sided, and an entering column that reaches its
// opposite bound before any basic column blocks flips there without
// a pivot.
//
// The constraint structure (row count, relations, coefficients) must
// be frozen after NewRevised; only right-hand sides and variable
// bounds may change between solves. The Problem lists what those
// changes touched for one context — the last one whose refresh drained
// the list — so the context that solves a Problem alone refreshes only
// that; contexts taking turns on one Problem refresh in full. A fork
// owns the list of its own cloned Problem.
type Revised struct {
	*Factorization

	p  *Problem
	id uint64 // names this context as the owner of p's change list

	// sign[i] is the row normalization chosen at the last cold start
	// so that the effective rhs was nonnegative; effective matrix
	// entries are sign[row]*stored value and the artificial column of
	// row i is +e_i in effective space.
	sign     []float64
	signInit bool

	// Per-solve bound state, refreshed from the owning Problem.
	// Internally every solve works in the lower-bound-shifted space
	// x' = x - lb, so a structural column ranges over [0, U] with
	// U = ub - lb (+Inf when unbounded above); slack and artificial
	// columns keep [0, +Inf).
	lbs []float64 // structural lower bounds (extraction shift)
	U   []float64 // shifted bound range per column

	// rhsOK marks lbs, U, acc, b and scale as describing the owning
	// Problem as of this context's last drain of its change list, under
	// the current sign; refreshRHS then recomputes only what the list
	// names. It is cleared wherever that stops holding: Rebase and cold
	// solves rewrite sign, a foreign-basis install replaces the at-upper
	// set wholesale, a Rewind puts back other signs.
	rhsOK bool

	// Working state, valid between solves while factorized is true.
	// Invariant: while factorized, the current basis (with its
	// atUpper statuses) is dual feasible for the phase-2 costs (every
	// solve ends optimal, infeasible via the dual simplex — which
	// preserves dual feasibility — or clears the flag; Rewind puts back
	// a state that was frozen under the same invariant). While djOK, dj
	// is that basis's reduced-cost vector.
	fac        *luFactor
	basis      []int
	inBasis    []bool
	atUpper    []bool // nonbasic-at-upper-bound status per column
	xb         []float64
	b          []float64
	scale      float64 // max_i |b_i|, at row scaleRow
	scaleRow   int
	factorized bool

	// infeas is the set of rows whose basic value lies outside its box
	// (xb_i < 0 or xb_i > U of the basic column), a bitset rebuilt by
	// computeXB and kept by every other write to xb: clampXB, which each
	// of pivotUpdate, boundFlip and applyBoundFlips calls on the rows they
	// move, and pivotUpdate on the row that changes column. The dual's
	// leaving-row choice and its stall sum walk it in ascending row order;
	// every row outside it is one the dense loops skipped, so both give
	// those loops' answer bit for bit.
	infeas []uint64

	stats Stats

	// gen counts solves (any of which may move the basis); frozen is the
	// state Freeze recorded at frozen.gen, which Rewind returns to and
	// forks are born on.
	gen    uint64
	frozen frozenState

	// Journals of where the state differs from the frozen one (DESIGN.md
	// "Serving: the frozen state and its journal"). drift: the rows whose b
	// and the structural columns whose bounds differ from the start's; it
	// lives across Rewinds and a full refresh rebuilds it (redrift). moved:
	// the rows whose xb, infeasibility bit, basic column or DSE weight and
	// the columns whose basic or at-upper status the solve from the start
	// wrote — whole once a write covered a whole vector (wholeMoved); Rewind
	// undoes it. xMoved: where xscratch differs from the start's X. resid is
	// the residue the last start left.
	driftRows, driftCols journal
	movedRows, movedCols journal
	xMoved               journal
	resid                float64

	// Devex reference-framework weights pricing entering candidates in
	// the primal; each primal run resets the framework.
	dwCol []float64

	// Exact dual steepest-edge state (Forrest–Goldfarb): dseW[i]
	// tracks γ_i = ‖e_iᵀB⁻¹‖² under the exact per-pivot recurrence
	// (one extra FTRAN per dual pivot), with γ of the pivot row
	// recomputed exactly from ρ_r each pivot so the weights
	// self-correct instead of drifting. dseOK marks the weights as
	// describing the current basis; it is cleared by anything that
	// changes the basis outside the dual's own updates (cold solves,
	// primal pivots, Rebase, basis installs — which set it again when
	// the basis carries weights that can price it) and by a non-finite
	// update. Where it is clear, the dual's next leaving-row choice, or
	// Freeze, computes the weights exactly from the factor (initDSE), so
	// the recurrence always starts exact. Basis carries the settled
	// weights out. A dual pivot's update waits in pend until something reads the
	// weights (settleDSE).
	dseW  []float64
	dseOK bool
	pend  dsePending

	// paths serves a dual pivot what an earlier solve's pivot computed at
	// the same place on the same pivot path off the frozen state
	// (pathCache).
	paths pathCache

	// dj[j] = c_j − y·A_j over the priced (non-artificial) columns for
	// the current basis under the phase-2 costs: 0 on basic columns,
	// independent of bounds and right-hand sides. The dual maintains it
	// along each pivot row it prices, so a warm restart's entry check, its
	// ratio tests and its final optimality check read it instead of each
	// deriving it from a multiplier BTRAN. djOK is cleared wherever dseOK
	// is — the basis changed outside the dual's own updates — and
	// computeDJ then rebuilds it before the next dual run.
	dj   []float64
	djOK bool

	// budgetOverride, when positive, replaces warmPivotBudget — the
	// hook tests use to force a warm restart into the cold fallback.
	// onPivot, when set, runs before each pivot and primal bound flip is
	// applied, while d, rho and their lists describe it and the factor
	// is still the one they were solved on — where tests audit the lists.
	// onRefresh, when set, runs at the end of every refreshRHS — where
	// tests hold an incremental refresh to a full one; onStart, at the end
	// of every startFrozen, with its verdict; onPrice, after every dual
	// pricing pass, with the row's orientation and the candidate list (nil
	// when the dense arm priced) — where tests audit candAlpha; onSettle, at
	// the end of every settleDSE, with whether it applied a pending update —
	// where tests hold the weights to those of a context with eagerPivots
	// set, whose dual pivots compute ρ, the candidates and τ afresh and apply
	// each steepest-edge update before the pivot, as they did before the
	// path cache and the deferred update.
	budgetOverride int
	onPivot        func()
	onRefresh      func()
	onStart        func(overWide, overNarrow bool)
	onPrice        func(amult float64, cands []int32)
	onSettle       func(applied bool)
	eagerPivots    bool

	// Scratch buffers reused across solves. All per-context: a forked
	// context allocates its own set, so concurrent solves against the
	// shared Factorization never share writable memory.
	ys []float64 // signed simplex multipliers (primal, computeDJ)
	// ws is the signed leaving row amult·rho·sign, filled whole (signedRow)
	// only where a dense arm dots it with stored columns: the dual's
	// full-column pricing, updateDevexCols and driveOutArtificials. The
	// sparse scatter forms each entry where it reads it (DESIGN.md "Pivot
	// path: what a dual pivot touches").
	ws  []float64
	d   []float64 // entering direction B^{-1}A_j (direction)
	rho []float64 // leaving row of B^{-1} (leavingRow)
	tau []float64 // B^{-1}ρ_r (dual steepest-edge weight update)
	// dIdx, rhoIdx and tauIdx list the nonzeros of d, rho and tau, and
	// every loop over one of those vectors' nonzeros walks its list. The
	// contract, kept by the solve that writes the vector (luFactor.solve,
	// btranRow) in its own output pass: position i is listed exactly when
	// v[i] != 0 in the finished vector — after the eta file, which can fill
	// a position the base solve left at 0; a value that cancelled to 0 or
	// −0 is not listed, whatever the sparsity pattern promised — once, in
	// ascending order, so a walk accumulates in the order the dense sweep
	// it replaced did. The vectors stay valid at every position (d[leave],
	// tau against d): rho is written whole, and the sparse FTRANs that
	// write d and tau, and the path cache where it serves rho or
	// tau, zero them at their old list first, so each is zero outside its
	// list. The list is rewritten with the vector and neither is touched
	// in between, so there is no separate validity.
	dIdx, rhoIdx, tauIdx []int32

	bfOrder []int32 // ratio-sorted breakpoint order (BFRT)
	// acc[i] = Σ_j A_ij·lb_j, row i's lower-bound shift, kept with b
	// while rhsOK; shifted lists the rows an incremental refresh re-sums.
	// beff is scratch: the bound-adjusted effective rhs (computeXB) and the
	// rhs change of a start from the frozen state (startFrozen).
	acc       []float64
	shifted   journal
	beff      []float64
	seen      []bool  // basis validation
	candList  []int32 // dual pricing candidates (rho-support columns)
	candStamp []int32
	candAlpha []float64 // pivot-row entry α_j per column the dual's pricing pass visited
	candCur   int32
	dcJ       []int32 // dual ratio-test breakpoint buffers
	dcAlpha   []float64
	dcRatio   []float64
	xscratch  []float64 // Solution.X of every solve on this context
}

// contexts numbers the solve contexts NewRevised and Fork make, from 1.
var contexts atomic.Uint64

// infeasTol is the phase-1 acceptance (the lptest oracle uses the same).
const infeasTol = 1e-7

// Stats aggregates solver activity over the lifetime of a Revised
// instance (or since the last ResetStats): the per-solve cost drivers
// schedd's /stats and the benchmark's per-layer trace report.
type Stats struct {
	// Pivots counts every simplex basis change (primal + dual + basis
	// repair); PrimalPivots/DualPivots break out the two methods.
	Pivots       int `json:"pivots"`
	PrimalPivots int `json:"primalPivots"`
	DualPivots   int `json:"dualPivots"`
	// BoundFlips counts the pivot-free moves of the bounded-variable
	// simplex (a nonbasic column crossing its box).
	BoundFlips int `json:"boundFlips"`
	// Refactorizations counts basis-factorization rebuilds.
	Refactorizations int `json:"refactorizations"`
	// ColdSolves counts full two-phase solves, WarmSolves dual-simplex
	// restarts that ran to a verdict, and ColdFallbacks warm restarts
	// that were abandoned into a cold solve (stale basis, stall, or
	// pivot-budget exhaustion).
	ColdSolves    int `json:"coldSolves"`
	WarmSolves    int `json:"warmSolves"`
	ColdFallbacks int `json:"coldFallbacks"`
	// FTUpdates is always 0: nothing increments it since the
	// Forrest–Tomlin factor was deleted. It stays only because
	// bench/trace.go:370 and bench/run.go:270 read it and bench/ is
	// frozen; drop it with lp.ft_updates_per_op in the next [benchmark] PR.
	FTUpdates int `json:"ftUpdates"`
	// DSEWeightResets counts exact dual steepest-edge weight
	// initializations (one sparse FTRAN per row): at the first dual run
	// or Freeze after anything that moved the basis outside the dual's
	// own recurrence without supplying weights — a cold solve, primal
	// pivots, a basis installed without usable weights — plus the rare
	// non-finite-weight bailouts.
	DSEWeightResets int `json:"dseWeightResets"`
	// Forks counts the solve contexts Revised.Fork allocated off this
	// instance; bringing an existing one onto a newer snapshot in place
	// (Revised.Refork) is not a fork, so a caller that keeps its forks
	// counts each once.
	Forks int `json:"forks"`
	// Phase is the wall-time-per-phase breakdown of the solves behind
	// the counters above. Unlike every other field it is nondeterministic:
	// it measures the clock, not the arithmetic.
	Phase PhaseTimes `json:"phase"`
}

// PhaseTimes is cumulative wall time per simplex phase, in
// nanoseconds. The categories follow the classic revised-simplex cost
// model: FTRAN (column solves B·x = a, including direction solves,
// basic-value recomputes, DSE recurrence and aggregated bound-flip
// updates), BTRAN (row solves yᵀB = eᵀ and full multiplier solves),
// Pricing (entering/leaving candidate selection, reduced-cost and
// reference-weight maintenance, the dual-feasibility scans), RatioTest
// (primal Harris passes and the dual bound-flipping ratio test), and
// Refactor (basis factorization rebuilds). FTRAN/BTRAN solves issued
// from inside a pricing or ratio-test section count in both categories
// — the breakdown is an attribution aid, not a partition, so the phases
// need not sum to the total solve time.
type PhaseTimes struct {
	FTRANNanos     int64 `json:"ftranNanos"`
	BTRANNanos     int64 `json:"btranNanos"`
	PricingNanos   int64 `json:"pricingNanos"`
	RatioTestNanos int64 `json:"ratioTestNanos"`
	RefactorNanos  int64 `json:"refactorNanos"`
}

// Add accumulates other into p.
func (p *PhaseTimes) Add(other PhaseTimes) {
	p.FTRANNanos += other.FTRANNanos
	p.BTRANNanos += other.BTRANNanos
	p.PricingNanos += other.PricingNanos
	p.RatioTestNanos += other.RatioTestNanos
	p.RefactorNanos += other.RefactorNanos
}

// Add accumulates other's counters into s — the aggregation the
// scheduling service's pool-wide /stats endpoint performs over its
// sessions.
func (s *Stats) Add(other Stats) {
	s.Pivots += other.Pivots
	s.PrimalPivots += other.PrimalPivots
	s.DualPivots += other.DualPivots
	s.BoundFlips += other.BoundFlips
	s.Refactorizations += other.Refactorizations
	s.ColdSolves += other.ColdSolves
	s.WarmSolves += other.WarmSolves
	s.ColdFallbacks += other.ColdFallbacks
	s.DSEWeightResets += other.DSEWeightResets
	s.Forks += other.Forks
	s.Phase.Add(other.Phase)
}

// Stats returns the accumulated solver counters.
func (r *Revised) Stats() Stats { return r.stats }

// NumCols is the instance's internal column count — structural, slack
// and artificial columns — which is the length of the at-upper
// statuses a Basis of this instance exports.
func (r *Revised) NumCols() int { return r.ncols }

// ResetStats zeroes the accumulated solver counters.
func (r *Revised) ResetStats() { r.stats = Stats{} }

// AbsorbStats folds counters accumulated elsewhere — a forked
// context's solve activity — into this instance's totals.
func (r *Revised) AbsorbStats(other Stats) { r.stats.Add(other) }

// NewRevised builds a revised-simplex instance over p's current
// constraint rows. The instance assumes the row structure is frozen;
// solving after rows were added panics.
func NewRevised(p *Problem) *Revised {
	r := &Revised{Factorization: newFactorization(p), p: p}
	r.alloc()
	return r
}

// alloc sizes everything a solve writes to: the basis state, its
// factor and the scratch buffers. Shared by NewRevised and Fork so a
// forked context never aliases writable memory of its parent.
func (r *Revised) alloc() {
	r.id = contexts.Add(1)
	r.sign = make([]float64, r.m)
	r.b = make([]float64, r.m)
	r.xb = make([]float64, r.m)
	r.infeas = make([]uint64, (r.m+63)/64)
	r.basis = make([]int, r.m)
	r.inBasis = make([]bool, r.ncols)
	r.atUpper = make([]bool, r.ncols)
	r.lbs = make([]float64, r.nstruct)
	r.U = make([]float64, r.ncols)
	for j := range r.U {
		r.U[j] = math.Inf(1)
	}
	r.fac = newLUFactor(r)
	r.dwCol = make([]float64, r.ncols)
	r.dseW = make([]float64, r.m)
	r.dj = make([]float64, r.artStart)
	r.ys = make([]float64, r.m)
	r.ws = make([]float64, r.m)
	r.d = make([]float64, r.m)
	r.rho = make([]float64, r.m)
	r.tau = make([]float64, r.m)
	r.dIdx = make([]int32, 0, r.m)
	r.rhoIdx = make([]int32, 0, r.m)
	r.tauIdx = make([]int32, 0, r.m)
	r.acc = make([]float64, r.m)
	r.beff = make([]float64, r.m)
	r.seen = make([]bool, r.ncols)
	r.candList = make([]int32, 0, r.sp.n)
	r.candStamp = make([]int32, r.sp.n)
	r.candAlpha = make([]float64, r.sp.n)
	// Pre-size the dual ratio-test breakpoint buffers so the first
	// warm restarts don't pay append-growth allocations.
	r.dcJ = make([]int32, 0, r.sp.n)
	r.dcAlpha = make([]float64, 0, r.sp.n)
	r.dcRatio = make([]float64, 0, r.sp.n)
	r.bfOrder = make([]int32, 0, r.sp.n)
	r.xscratch = make([]float64, r.nstruct)
	r.paths.budget = 12 * pathBudgetPairs * (2*r.m + r.artStart)
	r.shifted.open()
}
