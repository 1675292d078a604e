package lp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// pathAudit holds every dual pivot the path cache served or filed to a
// computation afresh on the factor the pivot runs on, holds every entry
// served to the pivot path it was filed under — tracked by the audit
// itself, apart from the cache's key — and counts what it saw.
type pathAudit struct {
	t    *testing.T
	ctxs map[*Revised]*auditPath

	served, filed, tauServed [3]int // by depth: 0, 1, deeper
	unfiled, dense           int
	// otherEnter counts pivots that left one node by a (row, side) an
	// earlier pivot left it by after another entering column; broken,
	// pivots right after a refactorization ended a served path; bothSides,
	// first pivots by a row an earlier one left the same frozen state by
	// on the other side; acrossStarts, pivots on a path a context filed
	// under another frozen state.
	otherEnter, broken      int
	bothSides, acrossStarts int
	fullSeen                bool

	rho, tau, y []float64
	rhoIdx, idx []int32
	reach       []bool
}

// auditPath is what the audit tracks of one context: under the start the
// cache's entries were filed under, the path each was filed under and the
// column each node was left by (row, side) after; and where the last dual
// pivot stood.
type auditPath struct {
	start  *frozenStart
	paths  []string
	leftBy map[string]int
	// under is the frozen state each path was last served or filed under.
	under  map[string]*frozenStart
	fullAt [2]int // the entries and arena pairs when the cache was first seen full, or -1
	// solves tells one solve, and one stretch of it between
	// refactorizations, from the next: the warm, cold and fallback solve
	// counts and the refactorizations.
	solves [4]int
	node   string // the path of the entry the last pivot left by
	on     bool   // the cache served the last pivot: the path goes on
	leave  int
	depth  int
}

// attach audits r's every pivot.
func (a *pathAudit) attach(r *Revised) {
	if a.ctxs == nil {
		a.ctxs = map[*Revised]*auditPath{}
	}
	a.ctxs[r] = &auditPath{leftBy: map[string]int{}, under: map[string]*frozenStart{}, fullAt: [2]int{-1, -1}}
	r.onPivot = func() { a.pivot(r) }
}

// pivot runs before each pivot is applied, while ρ, the candidates' α and
// the pending update describe it and the factor is the one it priced on.
func (a *pathAudit) pivot(r *Revised) {
	a.t.Helper()
	pd := r.pend
	if !pd.on {
		return // a primal pivot
	}
	pc, st := &r.paths, a.ctxs[r]
	if b := pathEntryBytes*cap(pc.ents) + 4*cap(pc.slots) + 4*cap(pc.idx) + 8*cap(pc.val); b > pc.budget {
		a.t.Fatalf("the path cache's storage takes %d bytes, more than its budget %d", b, pc.budget)
	}
	if pc.start != st.start || len(pc.ents) < len(st.paths) { // emptied
		st.start, st.paths, st.fullAt = pc.start, st.paths[:0], [2]int{-1, -1}
		clear(st.leftBy)
	}
	// A pricing pass that files an entry and then finds no entering column
	// ends the dual before its pivot: such entries are the cache's key's.
	for e := len(st.paths); e < len(pc.ents) && e != pd.fp; e++ {
		x := pc.ents[e]
		key := fmt.Sprintf("%d%v", x.row, x.below)
		if x.parent >= 0 {
			key = fmt.Sprintf("%s+%d|%s", st.paths[x.parent], x.enter, key)
		}
		st.paths = append(st.paths, key)
	}
	if pc.full {
		a.fullSeen = true
		if st.fullAt[0] < 0 {
			st.fullAt = [2]int{len(pc.ents), len(pc.idx)}
		} else if st.fullAt != [2]int{len(pc.ents), len(pc.idx)} {
			a.t.Fatalf("a full cache filed more: %d entries and %d pairs, %v when it filled", len(pc.ents), len(pc.idx), st.fullAt)
		}
	}
	solves := [4]int{r.stats.WarmSolves, r.stats.ColdSolves, r.stats.ColdFallbacks, r.stats.Refactorizations}
	node, on, via := "", false, -1
	switch {
	case pd.etas == 0 && r.fac.borrowed && r.frozen.start != nil: // the frozen state
		st.depth, on = 0, true
	case st.on && solves == st.solves:
		via = r.basis[st.leave] // the column the last pivot entered
		node, on = fmt.Sprintf("%s+%d|", st.node, via), true
		st.depth++
	case st.on && [3]int(solves[:3]) == [3]int(st.solves[:3]):
		a.broken++
	}
	st.solves, st.on, st.leave = solves, false, pd.leave
	if !on {
		if pd.fp >= 0 {
			a.t.Fatalf("row %d: off every path the cache could serve, it served or filed entry %d", pd.leave, pd.fp)
		}
		return
	}
	// The flips the ratio test took leave the row violating, on its side.
	below := r.xb[pd.leave] < 0
	key := fmt.Sprintf("%s%d%v", node, pd.leave, below)
	if st.depth > 0 {
		at := fmt.Sprintf("%s/%d%v", st.node, pd.leave, below)
		if e, ok := st.leftBy[at]; ok && e != via {
			a.otherEnter++
		}
		st.leftBy[at] = via
	}
	d := min(st.depth, 2)
	switch {
	case pd.fp < 0:
		work := 0
		for _, i := range r.rhoIdx {
			work += len(r.rowCols[i])
		}
		switch {
		case work > len(r.sp.val)/2:
			a.dense++ // the dense arm priced it
		case pc.full:
			a.unfiled++
		default:
			a.t.Fatalf("%s: a scattered pivot on the path filed nothing in a cache of %d entries", key, len(pc.ents))
		}
		return
	case pd.fp < len(st.paths):
		if st.paths[pd.fp] != key {
			a.t.Fatalf("path %s was served the entry filed for path %s", key, st.paths[pd.fp])
		}
		a.served[d]++
		st.on = true
	case pd.fp == len(st.paths) && pd.fp == len(pc.ents)-1:
		st.paths = append(st.paths, key)
		a.filed[d]++
	default:
		a.t.Fatalf("path %s: entry %d is neither one filed before nor the one filed last", key, pd.fp)
	}
	if at, ok := st.under[key]; ok && at != pc.start {
		a.acrossStarts++
	}
	if st.depth == 0 && st.under[fmt.Sprintf("%d%v", pd.leave, !below)] == pc.start {
		a.bothSides++
	}
	st.under[key], st.node = pc.start, key
	a.fresh(r, below)
}

// fresh holds the pending pivot's ρ, list, ‖ρ‖², candidates, α and — once
// the cache holds it — τ to a computation afresh on the live factor.
func (a *pathAudit) fresh(r *Revised, below bool) {
	a.t.Helper()
	pd, pc := r.pend, &r.paths
	row := pd.leave
	m := r.m
	if len(a.rho) < m {
		a.rho, a.tau, a.y = make([]float64, m), make([]float64, m), make([]float64, m)
		a.rhoIdx, a.idx = make([]int32, 0, m), make([]int32, 0, m)
	}
	rho, tau := a.rho[:m], a.tau[:m]
	f := r.fac
	var gamma float64
	a.rhoIdx, gamma = f.btranRow(row, rho, a.rhoIdx[:0])
	if !slices.Equal(r.rhoIdx, a.rhoIdx) || !sameFloat(pd.gamma, gamma) {
		a.t.Fatalf("row %d: served ρ lists %v with ‖ρ‖² %v, afresh %v with %v", row, r.rhoIdx, pd.gamma, a.rhoIdx, gamma)
	}
	for i := range rho {
		if !sameFloat(r.rho[i], rho[i]) {
			a.t.Fatalf("row %d: served ρ[%d] = %v, afresh %v", row, i, r.rho[i], rho[i])
		}
	}
	// The candidates are the nonbasic columns fresh ρ's rows reach, in
	// first-reach order, and α_j = amult·ρ·sign·A_j down the stored column.
	amult := 1.0
	if !below {
		amult = -1
	}
	e := pc.ents[pd.fp]
	cands := pc.idx[e.cand[0]:e.cand[1]]
	if len(a.reach) < r.artStart {
		a.reach = make([]bool, r.artStart)
	}
	reach := a.reach[:r.artStart]
	clear(reach)
	n := 0
	for _, i := range a.rhoIdx {
		for _, j := range r.rowCols[i] {
			if r.inBasis[j] || reach[j] {
				continue
			}
			reach[j] = true
			if n >= len(cands) || cands[n] != j {
				a.t.Fatalf("row %d: served candidate %d is not column %d, the next one fresh ρ's rows reach", row, n, j)
			}
			alpha := 0.0
			for t := r.sp.colPtr[j]; t < r.sp.colPtr[j+1]; t++ {
				i := r.sp.rowIdx[t]
				alpha += amult * rho[i] * r.sign[i] * r.sp.val[t]
			}
			if !sameFloat(r.candAlpha[j], alpha) {
				a.t.Fatalf("row %d below %v: served α[%d] = %v, afresh %v", row, below, j, r.candAlpha[j], alpha)
			}
			n++
		}
	}
	if n != len(cands) {
		a.t.Fatalf("row %d: %d candidates served, fresh ρ's rows reach %d", row, len(cands), n)
	}
	if !e.tauOK {
		return
	}
	a.tauServed[min(a.ctxs[r].depth, 2)]++
	clear(tau)
	a.idx = f.ftranRows(a.rhoIdx, rho, tau, a.idx[:0])
	y := a.y[:m]
	clear(y)
	got := pc.idx[e.tau[0]:e.tau[1]]
	for t, i := range got {
		y[i] = pc.val[int(e.tau[0])+t]
	}
	if !slices.Equal(got, a.idx) {
		a.t.Fatalf("row %d: the cached τ lists %v, afresh %v", row, got, a.idx)
	}
	for i := range y {
		if !sameFloat(y[i], tau[i]) {
			a.t.Fatalf("row %d: the cached τ[%d] = %v, afresh %v", row, i, y[i], tau[i])
		}
	}
}

// TestPathCacheIsExact: over TestRewindRestoresFrozenState's schedule —
// what-ifs rewound on a context, a fork, a fork of it and a reforked fork,
// an Infeasible re-check, a second solve before a Rewind, a Freeze after a
// solve nothing rewound — and over runs of what-ifs off one frozen state,
// every dual pivot the path cache serves or files, at every depth, has the
// ρ, list, ‖ρ‖², candidates and α of a computation afresh on the factor it
// pivots on, float for float (0 = −0), and every τ the cache holds is the
// one a fresh solve gives. Every entry served was filed under the pivot
// path it serves, which the audit tracks apart from the cache's key; a
// pivot off every path — after a refactorization, in a solve that did not
// start on the frozen factor, or after a pivot the cache did not serve —
// is neither served nor filed. The runs reach a node left by one (row,
// side) after different entering columns, a row leaving one frozen state
// on both sides, a path a refactorization inside the dual breaks, and
// entries served under another start than the one they were filed under
// would be: a key without the entering column, the parent or the side, a
// validity test without the eta count, or a cache kept across frozen
// states fails here. The storage, capacity included, never exceeds the
// budget of 32·(2m + n) index-value pairs (pathBudgetPairs); a run of
// what-ifs fills it, after which the cache files
// nothing more, and a new Freeze empties it. No clock is read.
func TestPathCacheIsExact(t *testing.T) {
	a := &pathAudit{t: t}
	for _, inst := range []struct {
		name string
		p    *Problem
	}{
		{"sparse", sparseWhatIfLP(rand.New(rand.NewSource(5)), 240, 120)},
		{"dense", whatIfLP(rand.New(rand.NewSource(5)), 120, 80)},
	} {
		testRewindRestoresFrozenState(t, inst.p, inst.name == "dense", func(r *Revised) {
			a.attach(r)
			if r.frozen.start != nil && len(r.paths.ents) != 0 {
				t.Fatal("a context was born with a filled path cache")
			}
		})
	}
	t.Logf("schedule: served %v (%v with τ), filed %v by depth 0/1/deeper; %d dense, %d under another frozen state",
		a.served, a.tauServed, a.filed, a.dense, a.acrossStarts)
	if a.served[0] < 50 || a.served[1] == 0 || a.tauServed[0] == 0 || a.filed[2] == 0 || a.acrossStarts == 0 {
		t.Fatal("the schedule reached too little")
	}

	// Off one frozen state: a long what-if asked until its served path
	// reaches a refactorization inside the dual; then many what-ifs that
	// move rhs both ways, each asked twice, which leave by more rows, on
	// more sides and down more paths than the budget keeps: the cache fills,
	// serves what it holds, files no more, and a new Freeze empties it.
	p := sparseWhatIfLP(rand.New(rand.NewSource(6)), 480, 240)
	r := NewRevised(p)
	a.attach(r)
	if sol, err := r.SolveFrom(nil); err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	bas := r.Basis()
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	committed := saveProblem(p)
	ask := func(mutate func()) {
		t.Helper()
		mutate()
		if _, err := r.SolveFrom(bas); err != nil {
			t.Fatal(err)
		}
		committed.restore(p)
		r.Rewind()
	}
	long := func() {
		rng := rand.New(rand.NewSource(0))
		for i := 0; i < p.NumConstraints(); i++ {
			p.SetRHS(i, p.RHS(i)*(0.5+0.5*rng.Float64()))
		}
	}
	for k := 0; a.broken == 0; k++ {
		if k == 3*luMaxEtas {
			t.Fatal("asked over and over, the long what-if's served path reaches no refactorization")
		}
		ask(long)
	}
	// A node left by one (row, side) after different entering columns: cut
	// two rows that each take one pivot, asked twice so the second pivot is
	// filed under the first, then again with the column the first pivot
	// entered fixed at zero, so that another one enters there and the second
	// row leaves after it.
	audit, pivots, firstLeave, firstEnter := r.onPivot, 0, -1, -1
	r.onPivot = func() {
		if r.pend.on {
			if pivots++; pivots == 1 {
				firstLeave = r.pend.leave
			} else if pivots == 2 {
				firstEnter = r.basis[firstLeave]
			}
		}
		audit()
	}
	cut := func(fix int, rows ...int) int {
		pivots = 0
		ask(func() {
			for _, i := range rows {
				p.SetRHS(i, p.RHS(i)*0.5)
			}
			if fix >= 0 {
				p.SetVarBounds(fix, 0, 0)
			}
		})
		return pivots
	}
	var single []int
	for i := 0; i < p.NumConstraints() && len(single) < 12; i++ {
		if cut(-1, i) == 1 {
			single = append(single, i)
		}
	}
	for x := 0; x < len(single) && a.otherEnter == 0; x++ {
		for y := x + 1; y < len(single) && a.otherEnter == 0; y++ {
			if cut(-1, single[x], single[y]) != 2 || cut(-1, single[x], single[y]) != 2 || firstEnter >= r.nstruct {
				continue
			}
			if lb, ub := p.VarBounds(firstEnter); lb == 0 && ub > 0 {
				cut(firstEnter, single[x], single[y])
			}
		}
	}
	r.onPivot = audit
	if a.otherEnter == 0 {
		t.Fatal("no node was left by one (row, side) after different entering columns")
	}
	rng := rand.New(rand.NewSource(8))
	before := *a
	for k := 0; k < 600; k++ {
		rows := [3]int{rng.Intn(p.NumConstraints()), rng.Intn(p.NumConstraints()), rng.Intn(p.NumConstraints())}
		scale := [3]float64{0.2 + 1.6*rng.Float64(), 0.2 + 1.6*rng.Float64(), 0.2 + 1.6*rng.Float64()}
		for n := 0; n < 2; n++ {
			ask(func() {
				for i, row := range rows {
					p.SetRHS(row, p.RHS(row)*scale[i])
				}
			})
		}
	}
	t.Logf("fill: served %v, filed %v, %d unfiled, %d paths broken by a refactorization, %d nodes left after different entering columns, %d rows on both sides",
		a.served, a.filed, a.unfiled, a.broken, a.otherEnter, a.bothSides)
	if a.bothSides == 0 {
		t.Fatal("no row left first on both sides of one frozen state")
	}
	pc := &r.paths
	used := pathEntryBytes*len(pc.ents) + 4*len(pc.slots) + 12*len(pc.idx)
	t.Logf("the filled cache: %d entries, %d of %d budget bytes used", len(pc.ents), used, pc.budget)
	if n := unsafe.Sizeof(pathEntry{}); n > pathEntryBytes {
		t.Fatalf("an entry takes %d bytes, the budget charges it %d", n, pathEntryBytes)
	}
	if !pc.full || a.unfiled == before.unfiled || a.served[1] == before.served[1] || 4*used < 3*pc.budget {
		t.Fatalf("the fill run left %d entries in %d of %d bytes, with %d pivots unfiled: it did not fill the cache", len(pc.ents), used, pc.budget, a.unfiled-before.unfiled)
	}
	p.SetRHS(0, p.RHS(0)*0.9)
	if _, err := r.SolveFrom(bas); err != nil {
		t.Fatal(err)
	}
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	if n := len(r.paths.ents); n != 0 || r.paths.full {
		t.Fatalf("a new Freeze left %d entries in the path cache (full %v)", n, r.paths.full)
	}
}

// settled is the weights as one settle point left them.
type settled struct {
	where   string
	ctx     int
	ok      bool
	applied bool
	w       []float64
}

// settleLog records the steepest-edge weights at every settle point of
// the contexts it is attached to, in order.
type settleLog struct {
	eager bool
	n     int
	log   []settled
}

// attach sets r's pivots eager or deferred and logs its settle points.
func (l *settleLog) attach(r *Revised) {
	r.eagerPivots = l.eager
	ctx := l.n
	l.n++
	r.onSettle = func(applied bool) {
		l.log = append(l.log, settled{where: settleSite(), ctx: ctx, ok: r.dseOK, applied: applied, w: slices.Clone(r.dseW)})
	}
}

// settleSite names settleDSE's caller — and, for refactorize and Freeze,
// theirs — from the onSettle hook.
func settleSite() string {
	name := func(skip int) string {
		pc, _, _, _ := runtime.Caller(skip)
		s := runtime.FuncForPC(pc).Name()
		return s[strings.LastIndex(s, ".")+1:]
	}
	// 0 name, 1 this function, 2 the hook, 3 settleDSE, 4 its caller.
	at := name(4)
	if at == "refactorize" || at == "Freeze" {
		at += "/" + name(5)
	}
	return at
}

// primalAfterDual runs what-ifs that pivot in the dual and then, without
// a Rewind, open a fixed column that would enter: the next solve's entry
// is dual infeasible and its primal flips or pivots with the last dual
// update still pending.
func primalAfterDual(t *testing.T, born func(*Revised)) {
	t.Helper()
	p := whatIfLP(rand.New(rand.NewSource(5)), 120, 80)
	for j := 3; j < 60; j += 6 {
		p.SetVarBounds(j, 0, 0)
	}
	r := NewRevised(p)
	born(r)
	if sol, err := r.SolveFrom(nil); err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	bas := r.Basis()
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	committed := saveProblem(p)
	rng := rand.New(rand.NewSource(12))
	for k := 0; k < 12; k++ {
		for n := 0; n < 3; n++ {
			i := rng.Intn(p.NumConstraints())
			p.SetRHS(i, p.RHS(i)*(0.4+rng.Float64()))
		}
		if _, err := r.SolveFrom(bas); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < r.nstruct; j++ {
			if _, ub := p.VarBounds(j); ub == 0 && !r.inBasis[j] && r.dj[j] > r.dualTol() {
				p.SetVarBounds(j, 0, 1e-6)
				if _, err := r.SolveFrom(bas); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		committed.restore(p)
		r.Rewind()
	}
}

// TestDeferredWeightsMatchEager: the dual's steepest-edge update waits for
// the first reader of the weights, and a first pivot off the frozen state
// reads ρ, the candidates and τ from the path cache. Over
// TestRewindRestoresFrozenState's schedule and what-ifs whose primal runs
// with a dual update pending, contexts that pivot that way and contexts
// whose pivots compute everything afresh and update before the pivot
// (eagerPivots) meet the same settle points in the same order, and there
// the weights are bit for bit the same wherever they are valid: at each
// leaving-row choice, at Freeze and Refork, at a refactorization inside
// the dual and at the Infeasible re-check's, at the primal's first
// direction, and on a fork of a fork. No clock is read.
func TestDeferredWeightsMatchEager(t *testing.T) {
	var logs [2]*settleLog
	for mode, eager := range []bool{true, false} {
		l := &settleLog{eager: eager}
		for _, dense := range []bool{false, true} {
			p := sparseWhatIfLP(rand.New(rand.NewSource(5)), 240, 120)
			if dense {
				p = whatIfLP(rand.New(rand.NewSource(5)), 120, 80)
			}
			testRewindRestoresFrozenState(t, p, dense, l.attach)
		}
		primalAfterDual(t, l.attach)
		logs[mode] = l
	}
	want, got := logs[0].log, logs[1].log
	if len(got) != len(want) {
		t.Fatalf("deferred contexts settled %d times, eager ones %d", len(got), len(want))
	}
	applied, compared := map[string]int{}, map[string]int{}
	forkOfFork := 0
	for n, g := range got {
		w := want[n]
		if g.where != w.where || g.ctx != w.ctx || g.ok != w.ok {
			t.Fatalf("settle %d: deferred at %s on context %d (valid %v), eager at %s on context %d (valid %v)",
				n, g.where, g.ctx, g.ok, w.where, w.ctx, w.ok)
		}
		if w.applied {
			t.Fatalf("settle %d at %s: an eager context had an update pending", n, w.where)
		}
		if g.applied {
			applied[g.where]++
		}
		if !g.ok {
			continue
		}
		if i := bitsDiffer(g.w, w.w); i >= 0 {
			t.Fatalf("settle %d at %s on context %d: deferred dseW[%d] = %v, eager %v", n, g.where, g.ctx, i, g.w[i], w.w[i])
		}
		compared[g.where]++
		if g.ctx == 2 || g.ctx == 5 { // the forks of forks: contexts are numbered in the order they are made
			forkOfFork++
		}
	}
	t.Logf("%d settle points; weights compared at %v; a pending update applied at %v; %d on forks of forks", len(got), compared, applied, forkOfFork)
	for _, at := range []string{"dual", "refactorize/pivotUpdate", "Freeze/testRewindRestoresFrozenState", "primal"} {
		if applied[at] == 0 {
			t.Fatalf("no pending update was applied at %s", at)
		}
	}
	for _, at := range []string{"refactorize/warmSolve", "Freeze/Refork"} {
		if compared[at] == 0 {
			t.Fatalf("no weights were compared at %s", at)
		}
	}
	if forkOfFork == 0 {
		t.Fatal("no weights were compared on a fork of a fork")
	}
}
