package core

import "repro/internal/lp"

// Freeze makes the solver's current state — after a commit, the
// committed factorization — the one Rewind returns to, and records the
// optimum a solve from it starts at; it is a no-op until something
// solves again (lp.Revised.Freeze). The first Diff (or Solution) read
// after a Solve from it extracts that optimum once, into a block of its
// own that later answers share and no later Freeze writes.
func (m *Model) Freeze() error { return m.rev.Freeze() }

// Rewind puts the solver back on its frozen state (lp.Revised.Rewind):
// after a what-if that took no pivot it puts back only what that solve
// wrote, after any other it copies the frozen state back in O(rows +
// columns). With the capacities and bounds retracted, the next solve
// answers what the first one after Freeze did, at the cost of what it
// moves.
func (m *Model) Rewind() { m.rev.Rewind() }

// Fork returns a second solve context over the same program in
// O(rows + nonzeros) — no pivots: it allocates the fork's state and
// brings it onto the receiver's with Refork. The receiver must have
// solved at least once: the fork is born frozen on its state
// (lp.Revised.Fork), so a Solve on it warm-starts from the parent's basis
// with zero lost pivots, and again after every Rewind. Fork may
// refactorize the parent once per commit; a committed solve starts from
// Rebase, so committed answers are unaffected. A fork is ~260 KiB at
// K = 20 and ~1 MiB at K = 40; a caller that forks repeatedly keeps its
// forks and reforks them.
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
	f.rev, f.prob = frev, frev.Problem()
	f.natural = make([]float64, len(m.natural))
	f.curLb = make([]float64, len(m.curLb))
	f.curUb = make([]float64, len(m.curUb))
	f.crossed = make([]bool, len(m.crossed))
	f.budget = make([]float64, len(m.budget))
	f.moved, f.movedMark = nil, nil    // a fork's own SetBounds grows its own
	f.diffCells, f.diffVals = nil, nil // and its own Diff its own
	f.copyState(m)
	return &f, nil
}

// Refork brings f, a fork of m, onto m's current state in place
// (lp.Revised.Refork): afterwards it answers what a fresh Fork would, bit
// for bit, and allocates nothing to get there. Same conditions as Fork: m
// quiescent, f idle — between what-ifs, each retracted and rewound.
func (m *Model) Refork(f *Model) error {
	if err := m.rev.Refork(f.rev); err != nil {
		return err
	}
	f.copyState(m)
	return nil
}

// copyState copies m's link budgets and per-route bound state into f's
// own slices, and drops what f read off its last solve.
func (f *Model) copyState(m *Model) {
	copy(f.natural, m.natural)
	copy(f.curLb, m.curLb)
	copy(f.curUb, m.curUb)
	copy(f.crossed, m.crossed)
	copy(f.budget, m.budget)
	f.numCrossed = m.numCrossed
	for _, ord := range f.moved {
		f.movedMark[ord>>6] &^= 1 << (ord & 63)
	}
	f.moved = f.moved[:0]
	for _, ord := range m.moved {
		f.markMoved(ord)
	}
	f.last, f.frozen, f.frozenOf = lp.Solution{}, nil, nil
}

// AbsorbSolverStats folds counters accumulated elsewhere — typically a
// fork's solve activity after its batch completes — into this model's
// stats, so pool-wide aggregation sees work done on forked contexts.
func (m *Model) AbsorbSolverStats(s lp.Stats) { m.rev.AbsorbStats(s) }
