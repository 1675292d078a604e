package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rewindRound is one hypothetical of TestRewindRestoresFrozenState: a
// mutation of the rhs and bounds, read off the frozen state; maybe a
// second mutation and solve before the Rewind; maybe a warm-pivot budget
// that forces the cold fallback.
type rewindRound struct {
	name   string
	mutate func(c *Revised, p *Problem)
	second func(c *Revised, p *Problem)
	budget int
}

// rewindResult is everything one round reports: the verdict, the
// optimum bit for bit, what the solve cost, and how many rows the moved
// journal listed (-1: whole).
type rewindResult struct {
	status Status
	obj    float64
	x      []float64
	cost   Stats
	listed int
}

func (a rewindResult) equal(b rewindResult) bool {
	if a.status != b.status || a.cost != b.cost || a.listed != b.listed || len(a.x) != len(b.x) ||
		math.Float64bits(a.obj) != math.Float64bits(b.obj) {
		return false
	}
	for j := range a.x {
		if math.Float64bits(a.x[j]) != math.Float64bits(b.x[j]) {
			return false
		}
	}
	return true
}

// checkRewound fails unless r's solve state is its frozen copy, as a
// Rewind must leave it: the basis, its inBasis mirror and the at-upper
// statuses; the start's basic values and infeasibility set; the row
// signs; the reduced costs bit for bit; the steepest-edge weights bit for
// bit while they are valid (a reset from dseOK = false is undone by
// putting the flag back, not the weights); djOK, dseOK, factorized and
// the generation; an empty eta file; and the frozen LU arrays aliased,
// not copied.
func (r *Revised) checkRewound() error {
	fz := &r.frozen
	if !slices.Equal(r.basis, fz.basis) {
		return fmt.Errorf("basis differs from the frozen one")
	}
	up := make([]bool, r.ncols)
	for _, j := range fz.upper {
		up[j] = true
	}
	basic := make([]bool, r.ncols)
	for _, j := range fz.basis {
		basic[j] = true
	}
	for j := range r.inBasis {
		if r.inBasis[j] != basic[j] || r.atUpper[j] != up[j] {
			return fmt.Errorf("column %d: basic %v, at upper %v; frozen %v, %v", j, r.inBasis[j], r.atUpper[j], basic[j], up[j])
		}
	}
	if st := fz.start; st != nil {
		if i := bitsDiffer(r.xb, st.xb); i >= 0 {
			return fmt.Errorf("xb[%d] = %v, frozen %v", i, r.xb[i], st.xb[i])
		}
		if !slices.Equal(r.infeas, st.infeas) {
			return fmt.Errorf("infeasibility set differs from the frozen one")
		}
	}
	if i := bitsDiffer(r.sign, fz.sign); i >= 0 {
		return fmt.Errorf("sign[%d] = %v, frozen %v", i, r.sign[i], fz.sign[i])
	}
	if j := bitsDiffer(r.dj, fz.dj); j >= 0 {
		return fmt.Errorf("dj[%d] = %v, frozen %v", j, r.dj[j], fz.dj[j])
	}
	if i := bitsDiffer(r.dseW, fz.dseW); fz.dseOK && i >= 0 {
		return fmt.Errorf("dseW[%d] = %v, frozen %v", i, r.dseW[i], fz.dseW[i])
	}
	if r.djOK != fz.djOK || r.dseOK != fz.dseOK || r.factorized != fz.factorized || r.gen != fz.gen {
		return fmt.Errorf("djOK %v dseOK %v factorized %v gen %d; frozen %v %v %v %d",
			r.djOK, r.dseOK, r.factorized, r.gen, fz.djOK, fz.dseOK, fz.factorized, fz.gen)
	}
	if n := len(r.fac.etas); n != 0 {
		return fmt.Errorf("%d etas left in the file", n)
	}
	a, b := &r.fac.luArrays, &fz.luArrays
	if !aliased(a.rowOfPos, b.rowOfPos) || !aliased(a.colOfPos, b.colOfPos) || !aliased(a.posOfRow, b.posOfRow) ||
		!aliased(a.posOfCol, b.posOfCol) || !aliased(a.lPtr, b.lPtr) || !aliased(a.lIdx, b.lIdx) ||
		!aliased(a.lVal, b.lVal) || !aliased(a.uPtr, b.uPtr) || !aliased(a.uIdx, b.uIdx) ||
		!aliased(a.uVal, b.uVal) || !aliased(a.uDiag, b.uDiag) || a.luNNZ != b.luNNZ || !r.fac.borrowed {
		return fmt.Errorf("the LU arrays are not the frozen ones, aliased and borrowed")
	}
	return nil
}

// bitsDiffer returns the first index where a and b differ in bits, or -1.
func bitsDiffer(a, b []float64) int {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// aliased reports whether a and b are the same storage.
func aliased[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestRewindRestoresFrozenState: after Freeze, a round of (mutate rhs
// and bounds, SolveFrom, undo, Rewind) reports the same verdict,
// the same bits of X, the same pivots, flips, refactorizations and
// weight resets and the same moved-journal length whatever rounds ran
// before it — on the frozen context, on a fork of it and on a fork of
// that fork. The rounds include one that moves basic values without a
// pivot, one that takes a bound flip and no pivot, one long enough to
// refactorize in mid-solve, one that ends Infeasible (which costs the
// round after it no refactorization), one that solves twice before its
// Rewind and one that falls back cold. After every Rewind the whole solve
// state is the frozen copy (checkRewound: basis, statuses, basic values,
// infeasibility set, signs, reduced costs, weights, the validity flags,
// an empty eta file, the frozen LU arrays aliased), whether the Rewind
// undid a
// listing journal or copied back a whole one; a fork's frozen copy is its
// own: the parent's next Freeze, which overwrites the parent's, does not
// reach it. The parent then freezes after a warm solve, where the
// steepest-edge weights are valid, and the rounds hold there too, on the
// parent and on a fork reforked onto it. It runs on two instances: a
// sparse one, where a pivot's direction reaches a few rows, and the
// denser whatIfLP, where it reaches most of them, so a listing journal
// must put back nearly the whole state.
func TestRewindRestoresFrozenState(t *testing.T) {
	for _, inst := range []struct {
		name string
		p    *Problem
	}{
		{"sparse", sparseWhatIfLP(rand.New(rand.NewSource(5)), 240, 120)},
		{"dense", whatIfLP(rand.New(rand.NewSource(5)), 120, 80)},
	} {
		t.Run(inst.name, func(t *testing.T) { testRewindRestoresFrozenState(t, inst.p, inst.name == "dense", func(*Revised) {}) })
	}
}

// testRewindRestoresFrozenState runs TestRewindRestoresFrozenState on p,
// passing each context it makes to born first: the schedule other tests
// audit. On a dense p some pivoting round must list every row; on a sparse
// one some must list fewer than half.
func testRewindRestoresFrozenState(t *testing.T, p *Problem, dense bool, born func(*Revised)) {
	for j := 3; j < 60; j += 6 {
		p.SetVarBounds(j, 0, 0) // fixed: the flip round opens one whose reduced cost is positive
	}
	r := NewRevised(p)
	born(r)
	sol, err := r.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	basis := r.Basis()
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}

	nudge := func(seed int64) func(*Revised, *Problem) {
		return func(_ *Revised, p *Problem) {
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 3; n++ {
				i := rng.Intn(p.NumConstraints())
				p.SetRHS(i, p.RHS(i)*(0.4+rng.Float64()))
			}
			j := rng.Intn(p.NumVars())
			if _, ub := p.VarBounds(j); ub == 0 {
				j++ // the fixed columns are the flip round's
			}
			p.SetVarBounds(j, 0, 0.5+3*rng.Float64())
		}
	}
	long := func(_ *Revised, p *Problem) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < p.NumConstraints(); i++ {
			p.SetRHS(i, p.RHS(i)*(0.2+0.8*rng.Float64()))
		}
		for j := 0; j < p.NumVars(); j += 2 {
			p.SetVarBounds(j, 0, 2*rng.Float64())
		}
	}
	var rounds []rewindRound
	for k := 0; k < 12; k++ {
		rounds = append(rounds, rewindRound{name: "nudge", mutate: nudge(int64(100 + k))})
	}
	rounds = append(rounds,
		rewindRound{name: "long", mutate: long},
		rewindRound{name: "infeasible", mutate: func(_ *Revised, p *Problem) {
			p.SetVarBounds(1, 1e6, math.Inf(1))
		}},
		// More room on the row of the basic slack with the most: its basic
		// value moves, nothing leaves its box.
		rewindRound{name: "zero-pivot", mutate: func(c *Revised, p *Problem) {
			best, most := -1, 0.0
			for i, bj := range c.frozen.basis {
				if bj >= c.nstruct && bj < c.artStart && c.xb[i] > most {
					best, most = i, c.xb[i]
				}
			}
			p.SetRHS(best, p.RHS(best)+most/2)
		}},
		// A fixed column that would enter opens a box so narrow that it
		// crosses it before any basic column blocks: the primal flips it.
		rewindRound{name: "flip", mutate: func(c *Revised, p *Problem) {
			for j := 0; j < c.nstruct; j++ {
				if _, ub := p.VarBounds(j); ub == 0 && !c.inBasis[j] && c.dj[j] > c.dualTol() {
					p.SetVarBounds(j, 0, 1e-6)
					return
				}
			}
			t.Fatal("flip round: no fixed column would enter")
		}},
		rewindRound{name: "twice", mutate: nudge(200), second: nudge(201)},
		rewindRound{name: "cold", mutate: long, budget: 1},
	)

	run := func(c *Revised, rd rewindRound) rewindResult {
		t.Helper()
		q := c.Problem()
		committed := saveProblem(q)
		c.ResetStats()
		rd.mutate(c, q)
		c.budgetOverride = rd.budget
		sol, err := c.SolveFrom(basis)
		if err == nil && rd.second != nil {
			rd.second(c, q)
			sol, err = c.SolveFrom(basis)
		}
		c.budgetOverride = 0
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		res := rewindResult{status: sol.Status, obj: sol.Objective, cost: countersOf(c.Stats()), listed: -1}
		res.x = append(res.x, sol.X...) // X is c's buffer: the next solve rewrites it
		if !c.movedRows.whole() {
			res.listed = len(c.movedRows.list)
		}
		committed.restore(q)
		c.Rewind()
		if !c.djOK || !c.frozen.djOK {
			t.Fatalf("%s: rewound to invalid reduced costs", rd.name)
		}
		if err := c.checkRewound(); err != nil {
			t.Fatalf("%s: after Rewind: %v", rd.name, err)
		}
		return res
	}
	record := func(c *Revised) []rewindResult {
		want := make([]rewindResult, len(rounds))
		for k, rd := range rounds {
			want[k] = run(c, rd)
		}
		return want
	}
	want := record(r)
	for k, rd := range rounds {
		w := want[k]
		if w.cost.ColdSolves != 0 && rd.name != "cold" {
			t.Fatalf("%s (round %d) fell back cold: the rounds must exercise the warm path", rd.name, k)
		}
		moves := w.cost.Pivots + w.cost.BoundFlips + w.cost.Refactorizations
		if ok := map[string]bool{
			"long":       w.status == Optimal && w.cost.Pivots > luMaxEtas && w.cost.Refactorizations > 0,
			"infeasible": w.status == Infeasible,
			"zero-pivot": w.status == Optimal && moves == 0 && w.listed > 0,
			"flip":       w.status == Optimal && w.cost.BoundFlips > 0 && w.cost.Pivots == 0 && w.cost.Refactorizations == 0 && w.listed > 0,
			"twice":      w.status == Optimal && w.listed == -1,
			"cold":       w.cost.ColdFallbacks == 1 && w.listed == -1,
		}; rd.name != "nudge" && !ok[rd.name] {
			t.Fatalf("%s round: status %v, cost %+v, %d rows listed — it does not reach what it is there for", rd.name, w.status, w.cost, w.listed)
		}
	}

	reach := slices.ContainsFunc(want, func(w rewindResult) bool {
		if w.cost.Pivots == 0 || w.listed < 0 {
			return false
		}
		return dense && w.listed == r.m || !dense && w.listed < r.m/2
	})
	if !reach {
		t.Fatalf("dense %v: no pivoting round's journal lists the rows it is there for", dense)
	}

	// The same hypotheticals under different histories: reversed, so the
	// last rounds now come first, then shuffled.
	check := func(who string, c *Revised, order []int, want []rewindResult) {
		t.Helper()
		prev := ""
		for _, k := range order {
			got := run(c, rounds[k])
			if !got.equal(want[k]) {
				t.Fatalf("%s: %s (round %d) after %q: status %v obj %v cost %+v listed %d\nfirst time: status %v obj %v cost %+v listed %d",
					who, rounds[k].name, k, prev, got.status, got.obj, got.cost, got.listed, want[k].status, want[k].obj, want[k].cost, want[k].listed)
			}
			prev = rounds[k].name
		}
	}
	reversed := make([]int, len(rounds))
	for k := range reversed {
		reversed[k] = len(rounds) - 1 - k
	}
	check("parent, reversed", r, reversed, want)
	// An Infeasible verdict used to drop the live factorization, which
	// the next solve then rebuilt: follow it with a round that needs no
	// refactorization of its own.
	quiet := 0
	for want[quiet].cost.Refactorizations != 0 {
		if quiet++; rounds[quiet].name != "nudge" {
			t.Fatal("every nudge round refactorizes: none can show that the round after an Infeasible verdict does not")
		}
	}
	named := func(name string) int {
		return slices.IndexFunc(rounds, func(rd rewindRound) bool { return rd.name == name })
	}
	check("parent, after the infeasible round", r, []int{named("infeasible"), quiet}, want)
	check("parent, shuffled", r, rand.New(rand.NewSource(9)).Perm(len(rounds)), want)

	// A fork is born on the same frozen state, and so is a fork of it.
	f, err := r.Fork()
	if err != nil {
		t.Fatal(err)
	}
	born(f)
	if err := f.checkRewound(); err != nil {
		t.Fatalf("a fresh fork: %v", err)
	}
	check("fork", f, reversed, want)
	g, err := f.Fork()
	if err != nil {
		t.Fatal(err)
	}
	born(g)
	check("fork of fork", g, rand.New(rand.NewSource(10)).Perm(len(rounds)), want)
	check("parent, after its forks solved", r, reversed, want)

	// The parent commits to another vertex and freezes there: its frozen
	// reduced costs change in place, the forks' do not.
	forkDJ := append([]float64(nil), f.frozen.dj...)
	parentDJ := append([]float64(nil), r.frozen.dj...)
	long(r, p) // many pivots away
	if sol, err := r.SolveFrom(basis); err != nil || sol.Status != Optimal {
		t.Fatalf("parent commit: status %v err %v", sol.Status, err)
	}
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	moved := false
	for j, v := range r.frozen.dj {
		moved = moved || v != parentDJ[j]
		if math.Float64bits(f.frozen.dj[j]) != math.Float64bits(forkDJ[j]) || math.Float64bits(g.frozen.dj[j]) != math.Float64bits(forkDJ[j]) {
			t.Fatalf("the parent's Freeze changed a fork's frozen dj[%d]", j)
		}
	}
	if !moved {
		t.Fatal("the parent's second Freeze recorded the same reduced costs: the check above shows nothing")
	}
	check("fork, after the parent froze elsewhere", f, reversed, want)

	// There the dual's steepest-edge weights are valid, so the rounds also
	// hold the weights a listing journal puts back.
	if !r.frozen.dseOK {
		t.Fatal("the parent froze after a warm solve with invalid steepest-edge weights")
	}
	again := record(r)
	check("parent, frozen after a warm solve, reversed", r, reversed, again)
	if err := r.Refork(f); err != nil {
		t.Fatal(err)
	}
	if err := f.checkRewound(); err != nil {
		t.Fatalf("a reforked fork: %v", err)
	}
	check("fork, reforked onto it", f, rand.New(rand.NewSource(11)).Perm(len(rounds)), again)
}

// sparseWhatIfLP is whatIfLP with each column in two or three rows, so a
// pivot's direction reaches a few rows, not all of them, and with narrow
// boxes on every third column, which the dual's long step flips.
func sparseWhatIfLP(r *rand.Rand, n, m int) *Problem {
	p := New(n)
	rows := make([][]Term, m)
	for j := 0; j < n; j++ {
		p.SetObjective(j, 0.5+r.Float64())
		if j%3 == 0 {
			p.SetVarBounds(j, 0, 0.2+r.Float64())
		}
		for k := 2 + r.Intn(2); k > 0; k-- {
			i := r.Intn(m)
			rows[i] = append(rows[i], Term{j, 0.5 + r.Float64()*4})
		}
	}
	for i, terms := range rows {
		if len(terms) == 0 {
			terms = []Term{{i % n, 1}}
		}
		p.AddConstraint(terms, LE, 5+r.Float64()*10)
	}
	return p
}

// countersOf is s without its wall-clock phase times: the part of a
// solve's cost that two runs of the same arithmetic agree on.
func countersOf(s Stats) Stats {
	s.Phase = PhaseTimes{}
	return s
}
