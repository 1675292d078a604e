package core

import "repro/internal/lp"

// Freeze makes the solver's current state — after a commit, the
// committed factorization — the one Rewind returns to, and records the
// optimum a solve from it starts at; it is a no-op until something
// solves again (lp.Revised.Freeze). The first Solution read after a
// zero-pivot Solve from it extracts that optimum once, into a block of
// its own that later answers share and no later Freeze writes.
func (m *Model) Freeze() error { return m.rev.Freeze() }

// Rewind puts the solver back on its frozen state (lp.Revised.Rewind):
// after a what-if that took no pivot it puts back only what that solve
// wrote, after any other it copies the frozen state back in O(rows +
// columns). With the capacities and bounds retracted, the next solve
// answers what the first one after Freeze did, at the cost of what it
// moves.
func (m *Model) Rewind() { m.rev.Rewind() }

// Fork returns a second solve context over the same program in
// O(rows + nonzeros) — no pivots. The receiver must have solved at
// least once: the fork is born frozen on its state (lp.Revised.Fork),
// so a Solve on it warm-starts from the parent's basis with
// zero lost pivots, and again after every Rewind. Fork may refactorize
// the parent once per commit; a committed solve starts from Rebase, so
// committed answers are unaffected.
//
// A fork is a Model. Its mutable state — the LP problem (lp's private
// clone), the solver context, the link budgets and the per-route bound
// bookkeeping — is private; the frozen index structures (route maps,
// row indices, the validated Problem) are shared read-only. Forks of
// one parent may therefore be mutated and solved concurrently with
// each other and with the parent. Fork while the parent is quiescent.
func (m *Model) Fork() (*Model, error) {
	frev, err := m.rev.Fork()
	if err != nil {
		return nil, err
	}
	f := *m
	f.rev = frev
	f.prob = frev.Problem()
	f.last = lp.Solution{} // the parent's, in the parent's buffer
	f.natural = append([]float64(nil), m.natural...)
	f.curLb = append([]float64(nil), m.curLb...)
	f.curUb = append([]float64(nil), m.curUb...)
	f.moved, f.movedMark = nil, nil // a fork's own SetBounds grows its own
	if len(m.moved) > 0 {
		f.moved = append([]int32(nil), m.moved...)
		f.movedMark = append([]uint64(nil), m.movedMark...)
	}
	f.crossed = append([]bool(nil), m.crossed...)
	f.budget = append([]float64(nil), m.budget...)
	return &f, nil
}

// AbsorbSolverStats folds counters accumulated elsewhere — typically a
// fork's solve activity after its batch completes — into this model's
// stats, so pool-wide aggregation sees work done on forked contexts.
func (m *Model) AbsorbSolverStats(s lp.Stats) { m.rev.AbsorbStats(s) }
