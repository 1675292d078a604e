package lp

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// fpKey is what a first pivot off a frozen state is filed under in a
// context's cache, with the frozen state.
type fpKey struct {
	row   int
	below bool
}

// pivotAudit holds every first dual pivot off a frozen state that the
// first-pivot cache served or filed to a computation afresh on the factor
// the pivot runs on, and counts what it saw.
type pivotAudit struct {
	t *testing.T
	// filed maps, per context, each key to the frozen state it was last
	// filed under.
	filed map[*Revised]map[fpKey]*frozenStart

	firsts, served, tauServed int
	unfiled, dense            int
	bothSides, acrossStarts   int
	fullSeen                  bool

	rho, tau, y []float64
	rhoIdx, idx []int32
	reach       []bool
}

// attach audits r's every pivot.
func (a *pivotAudit) attach(r *Revised) {
	if a.filed == nil {
		a.filed = map[*Revised]map[fpKey]*frozenStart{}
	}
	a.filed[r] = map[fpKey]*frozenStart{}
	r.onPivot = func() { a.pivot(r) }
}

// pivot runs before each pivot is applied, while ρ, the candidates' α and
// the pending update describe it and the factor is the one it priced on.
func (a *pivotAudit) pivot(r *Revised) {
	a.t.Helper()
	fc := &r.firstPivots
	if n := len(fc.ents); n > firstPivotCap {
		a.t.Fatalf("the first-pivot cache holds %d entries, more than its bound %d", n, firstPivotCap)
	} else if n == firstPivotCap {
		a.fullSeen = true
	}
	pd := r.pend
	if !pd.on || pd.etas != 0 || !r.onFrozenFactor() {
		return // not a first dual pivot off the frozen state
	}
	a.firsts++
	start := r.frozen.start
	// The flips the ratio test took leave the row violating, on its side.
	k := fpKey{pd.leave, r.xb[pd.leave] < 0}
	filed := a.filed[r]
	if at, ok := filed[k]; ok && at != start {
		a.acrossStarts++
	}
	if filed[fpKey{k.row, !k.below}] == start {
		a.bothSides++
	}
	if pd.fp < 0 {
		work := 0
		for _, i := range r.rhoIdx {
			work += len(r.rowCols[i])
		}
		switch {
		case work > len(r.sp.val)/2:
			a.dense++ // the dense arm priced it
		case len(fc.ents) == firstPivotCap:
			a.unfiled++
		default:
			a.t.Fatalf("row %d below %v: a scattered first pivot off the frozen state filed nothing in a cache of %d entries", k.row, k.below, len(fc.ents))
		}
		return
	}
	// A pivot that filed its entry is checked as one the cache served: a
	// cache that served it under a wrong key claims to have filed it.
	if filed[k] == start {
		a.served++
	}
	filed[k] = start
	m := r.m
	if len(a.rho) < m {
		a.rho, a.tau, a.y = make([]float64, m), make([]float64, m), make([]float64, m)
		a.rhoIdx, a.idx = make([]int32, 0, m), make([]int32, 0, m)
	}
	rho, tau := a.rho[:m], a.tau[:m]
	f := r.fac
	var gamma float64
	a.rhoIdx, gamma = f.btranRow(k.row, rho, a.rhoIdx[:0])
	if !slices.Equal(r.rhoIdx, a.rhoIdx) || !sameFloat(pd.gamma, gamma) {
		a.t.Fatalf("row %d: served ρ lists %v with ‖ρ‖² %v, afresh %v with %v", k.row, r.rhoIdx, pd.gamma, a.rhoIdx, gamma)
	}
	for i := range rho {
		if !sameFloat(r.rho[i], rho[i]) {
			a.t.Fatalf("row %d: served ρ[%d] = %v, afresh %v", k.row, i, r.rho[i], rho[i])
		}
	}
	// The candidates are the nonbasic columns fresh ρ's rows reach, in
	// first-reach order, and α_j = amult·ρ·sign·A_j down the stored column.
	amult := 1.0
	if !k.below {
		amult = -1
	}
	e := fc.ents[pd.fp]
	cands := fc.idx[e.cand[0]:e.cand[1]]
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
				a.t.Fatalf("row %d: served candidate %d is not column %d, the next one fresh ρ's rows reach", k.row, n, j)
			}
			alpha := 0.0
			for t := r.sp.colPtr[j]; t < r.sp.colPtr[j+1]; t++ {
				i := r.sp.rowIdx[t]
				alpha += amult * rho[i] * r.sign[i] * r.sp.val[t]
			}
			if !sameFloat(r.candAlpha[j], alpha) {
				a.t.Fatalf("row %d below %v: served α[%d] = %v, afresh %v", k.row, k.below, j, r.candAlpha[j], alpha)
			}
			n++
		}
	}
	if n != len(cands) {
		a.t.Fatalf("row %d: %d candidates served, fresh ρ's rows reach %d", k.row, len(cands), n)
	}
	if !e.tauOK {
		return
	}
	a.tauServed++
	clear(tau)
	a.idx = f.ftranRows(a.rhoIdx, rho, tau, a.idx[:0])
	y := a.y[:m]
	clear(y)
	got := fc.idx[e.tau[0]:e.tau[1]]
	for t, i := range got {
		y[i] = fc.val[e.tau[0]+t]
	}
	if !slices.Equal(got, a.idx) {
		a.t.Fatalf("row %d: the cached τ lists %v, afresh %v", k.row, got, a.idx)
	}
	for i := range y {
		if !sameFloat(y[i], tau[i]) {
			a.t.Fatalf("row %d: the cached τ[%d] = %v, afresh %v", k.row, i, y[i], tau[i])
		}
	}
}

// TestFirstPivotCacheIsExact: over TestRewindRestoresFrozenState's
// schedule — what-ifs rewound on a context, a fork, a fork of it and a
// reforked fork, an Infeasible re-check, a second solve before a Rewind, a
// Freeze after a solve nothing rewound — every first dual pivot the cache
// serves has the ρ, list, ‖ρ‖², candidates and α of a computation afresh
// on the factor it pivots on, float for float (0 = −0), and every τ the
// cache holds is the one a fresh solve gives. The schedule reaches a row
// leaving first on both sides of one frozen state, and a row leaving first
// in a context under another frozen state than the one its entry was filed
// under, so a key without the side or the frozen state fails here. A new
// Freeze empties the cache, and no context holds more than its bound,
// which a run of what-ifs off one frozen state fills. No clock is read.
func TestFirstPivotCacheIsExact(t *testing.T) {
	a := &pivotAudit{t: t}
	for _, inst := range []struct {
		name string
		p    *Problem
	}{
		{"sparse", sparseWhatIfLP(rand.New(rand.NewSource(5)), 240, 120)},
		{"dense", whatIfLP(rand.New(rand.NewSource(5)), 120, 80)},
	} {
		testRewindRestoresFrozenState(t, inst.p, inst.name == "dense", func(r *Revised) {
			a.attach(r)
			if r.frozen.start != nil && len(r.firstPivots.ents) != 0 {
				t.Fatal("a context was born with a filled first-pivot cache")
			}
		})
	}
	t.Logf("schedule: %d first pivots, %d served (%d with τ), %d dense, %d rows on both sides, %d under another frozen state",
		a.firsts, a.served, a.tauServed, a.dense, a.bothSides, a.acrossStarts)
	if a.served < 50 || a.tauServed == 0 || a.acrossStarts == 0 {
		t.Fatal("the schedule reached too little")
	}

	// Off one frozen state, many what-ifs that move rhs both ways leave by
	// more rows, and on more sides, than the cache keeps: it fills to its
	// bound, serves what it holds, files no more, and a new Freeze empties
	// it.
	rng := rand.New(rand.NewSource(8))
	p := sparseWhatIfLP(rand.New(rand.NewSource(6)), 240, 120)
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
	before := *a
	for k := 0; k < 400; k++ {
		for n := 0; n < 2; n++ {
			i := rng.Intn(p.NumConstraints())
			p.SetRHS(i, p.RHS(i)*(0.3+1.4*rng.Float64()))
		}
		if _, err := r.SolveFrom(bas); err != nil {
			t.Fatal(err)
		}
		committed.restore(p)
		r.Rewind()
	}
	t.Logf("fill: %d first pivots, %d served, %d unfiled, %d rows on both sides", a.firsts-before.firsts, a.served-before.served, a.unfiled, a.bothSides)
	if a.bothSides == 0 {
		t.Fatal("no row left first on both sides of one frozen state")
	}
	if len(r.firstPivots.ents) != firstPivotCap || a.unfiled == 0 || a.served-before.served == 0 {
		t.Fatalf("the fill run left %d entries, with %d first pivots unfiled: it did not fill the cache", len(r.firstPivots.ents), a.unfiled)
	}
	p.SetRHS(0, p.RHS(0)*0.9)
	if _, err := r.SolveFrom(bas); err != nil {
		t.Fatal(err)
	}
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	if n := len(r.firstPivots.ents); n != 0 {
		t.Fatalf("a new Freeze left %d entries in the first-pivot cache", n)
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
// reads ρ, the candidates and τ from the first-pivot cache. Over
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
