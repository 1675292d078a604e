package lp

import (
	"math"
	"math/rand"
	"testing"
)

// rewindRound is one hypothetical of TestRewindRestoresFrozenState.
type rewindRound struct {
	name   string
	mutate func(p *Problem)
}

// rewindResult is everything one round reports: the verdict, the
// optimum bit for bit, and what the solve cost.
type rewindResult struct {
	status Status
	obj    float64
	x      []float64
	cost   Stats
}

func (a rewindResult) equal(b rewindResult) bool {
	if a.status != b.status || a.cost != b.cost || len(a.x) != len(b.x) ||
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

// TestRewindRestoresFrozenState: after Freeze, a round of (mutate rhs
// and bounds, SolveFrom, undo, Rewind) reports the same verdict,
// the same bits of X and the same pivots, flips, refactorizations and
// weight resets whatever rounds ran before it — on the frozen context,
// on a fork of it and on a fork of that fork. The rounds include one
// long enough to refactorize in mid-solve and one that ends Infeasible
// (which costs the round after it no refactorization). Each Rewind also
// leaves the reduced-cost vector bit-equal to the frozen copy, and a
// fork's frozen copy is its own: the parent's next Freeze, which
// overwrites the parent's, does not reach it.
func TestRewindRestoresFrozenState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := whatIfLP(rng, 120, 80)
	r := NewRevised(p)
	sol, err := r.SolveFrom(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: status %v err %v", sol.Status, err)
	}
	basis := r.Basis()
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}

	var rounds []rewindRound
	for k := 0; k < 12; k++ {
		seed := int64(100 + k)
		rounds = append(rounds, rewindRound{"nudge", func(p *Problem) {
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 3; n++ {
				i := rng.Intn(p.NumConstraints())
				p.SetRHS(i, p.RHS(i)*(0.4+rng.Float64()))
			}
			p.SetVarBounds(rng.Intn(p.NumVars()), 0, 0.5+3*rng.Float64())
		}})
	}
	rounds = append(rounds,
		rewindRound{"long", func(p *Problem) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < p.NumConstraints(); i++ {
				p.SetRHS(i, p.RHS(i)*(0.2+0.8*rng.Float64()))
			}
			for j := 0; j < p.NumVars(); j += 2 {
				p.SetVarBounds(j, 0, 2*rng.Float64())
			}
		}},
		rewindRound{"infeasible", func(p *Problem) {
			p.SetVarBounds(1, 1e6, math.Inf(1))
		}},
	)

	run := func(c *Revised, rd rewindRound) rewindResult {
		t.Helper()
		q := c.Problem()
		committed := saveProblem(q)
		c.ResetStats()
		rd.mutate(q)
		sol, err := c.SolveFrom(basis)
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		res := rewindResult{status: sol.Status, obj: sol.Objective, cost: c.Stats().Deterministic()}
		res.x = append(res.x, sol.X...) // X is c's buffer: the next solve rewrites it
		committed.restore(q)
		c.Rewind()
		if !c.djOK || !c.frozen.djOK {
			t.Fatalf("%s: rewound to invalid reduced costs", rd.name)
		}
		for j, v := range c.frozen.dj {
			if math.Float64bits(c.dj[j]) != math.Float64bits(v) {
				t.Fatalf("%s: after Rewind dj[%d] = %v, frozen %v", rd.name, j, c.dj[j], v)
			}
		}
		return res
	}

	// Round 1 of each hypothetical, in order.
	want := make([]rewindResult, len(rounds))
	for k, rd := range rounds {
		want[k] = run(r, rd)
		if want[k].cost.ColdSolves != 0 {
			t.Fatalf("%s (round %d) fell back cold: the rounds must exercise the warm path", rd.name, k)
		}
	}
	for k, rd := range rounds {
		switch rd.name {
		case "long":
			if want[k].status != Optimal || want[k].cost.Pivots <= luMaxEtas || want[k].cost.Refactorizations == 0 {
				t.Fatalf("long round: status %v, %d pivots, %d refactorizations — it must refactorize in mid-solve",
					want[k].status, want[k].cost.Pivots, want[k].cost.Refactorizations)
			}
		case "infeasible":
			if want[k].status != Infeasible {
				t.Fatalf("infeasible round ended %v", want[k].status)
			}
		}
	}

	// The same hypotheticals under different histories: reversed, so the
	// infeasible and the long round now come first, then shuffled.
	check := func(who string, c *Revised, order []int) {
		t.Helper()
		prev := ""
		for _, k := range order {
			got := run(c, rounds[k])
			if !got.equal(want[k]) {
				t.Fatalf("%s: %s (round %d) after %q: status %v obj %v cost %+v\nfirst time: status %v obj %v cost %+v",
					who, rounds[k].name, k, prev, got.status, got.obj, got.cost, want[k].status, want[k].obj, want[k].cost)
			}
			prev = rounds[k].name
		}
	}
	reversed := make([]int, len(rounds))
	for k := range reversed {
		reversed[k] = len(rounds) - 1 - k
	}
	check("parent, reversed", r, reversed)
	// An Infeasible verdict used to drop the live factorization, which
	// the next solve then rebuilt: follow it with a round that needs no
	// refactorization of its own.
	quiet := 0
	for want[quiet].cost.Refactorizations != 0 {
		if quiet++; rounds[quiet].name != "nudge" {
			t.Fatal("every nudge round refactorizes: none can show that the round after an Infeasible verdict does not")
		}
	}
	check("parent, after the infeasible round", r, []int{len(rounds) - 1, quiet})
	check("parent, shuffled", r, rand.New(rand.NewSource(9)).Perm(len(rounds)))

	// A fork is born on the same frozen state, and so is a fork of it.
	f, err := r.Fork()
	if err != nil {
		t.Fatal(err)
	}
	check("fork", f, reversed)
	g, err := f.Fork()
	if err != nil {
		t.Fatal(err)
	}
	check("fork of fork", g, rand.New(rand.NewSource(10)).Perm(len(rounds)))
	check("parent, after its forks solved", r, reversed)

	// The parent commits to another vertex and freezes there: its frozen
	// reduced costs change in place, the forks' do not.
	forkDJ := append([]float64(nil), f.frozen.dj...)
	parentDJ := append([]float64(nil), r.frozen.dj...)
	rounds[len(rounds)-2].mutate(p) // the long round: many pivots away
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
	check("fork, after the parent froze elsewhere", f, reversed)
}
