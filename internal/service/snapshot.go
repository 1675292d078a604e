package service

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/lp"
	"repro/internal/platform"
)

// This file is the session half of the cluster integration: turning a
// live warm session into a cluster.SessionSnapshot and rebuilding one
// — warm — from a snapshot, on any replica. The committed state of a
// session is fully derivable from (creation platform, committed
// capacities, configuration, carried basis, epoch counter): epochs
// change only capacities and every solve re-injects them, so no
// mutation history needs shipping. The committed answer rides along,
// so a rebuilt session answers its first query with the owner's bytes.

// encodeAnswer appends the committed answer rep to dst in its compact
// form (json.Marshal's bytes); ok is false when rep has none. A test
// replaces it to watch the session lock while it runs.
var encodeAnswer = func(dst []byte, rep *SolveReport) ([]byte, bool) {
	return appendReport(dst, rep, 0, true)
}

// Snapshot serializes the session's committed state: identity,
// configuration, epoch, the creation platform's bytes and, as the
// sections they travel in, the committed capacities, the carried basis
// and its weights and the committed answer, plus the commit-dedup record
// as the bytes it already holds (shared with the record, not copied).
// It reads the published committed state and takes no lock: nothing in
// a published state is written, so the sections are written from it
// while commits go on. The returned snapshot is not yet sealed — the
// store or transfer path calls Encode, which stamps the version and
// checksum.
func (s *Session) Snapshot() (*cluster.SessionSnapshot, error) {
	snap, _, err := s.snapshotInto(nil)
	return snap, err
}

// snapshotInto is Snapshot with its sections written onto dst: the
// committed answer, when it is not the newest commit record's report,
// then the capacities, the basis and its weights. The snapshot reads
// them as the appended tail of the returned slice, which seal keeps at
// the head of the buffer it seals into.
func (s *Session) snapshotInto(dst []byte) (*cluster.SessionSnapshot, []byte, error) {
	c := s.state.Load()
	if c.basis == nil {
		return nil, dst, fmt.Errorf("session %s has no carried basis yet", s.id)
	}
	snap := &cluster.SessionSnapshot{
		ID:          s.id,
		Fingerprint: s.fingerprint,
		Objective:   s.cfg.objName,
		Heuristic:   s.cfg.heur,
		Payoffs:     s.cfg.payoffs,
		Seed:        s.cfg.seed,
		MaxNodes:    s.cfg.maxNodes,
		Epoch:       c.epoch,
		Platform:    s.created,
	}
	out := dst
	if !c.recorded {
		var ok bool
		if out, ok = encodeAnswer(dst, &c.answer.rep); !ok {
			return nil, dst, errNonFinite
		}
		snap.Answer = out[len(dst):len(out):len(out)]
	}
	out = snap.AppendCapacities(out, c.pr.Platform)
	cols, upper, weights := c.basis.View()
	out = snap.AppendBasis(out, s.cols, cols, upper, weights)
	snap.RecentCommits = make([]cluster.CommitRecord, 0, len(c.records))
	for _, rec := range c.records {
		if rec.wire != nil {
			snap.RecentCommits = append(snap.RecentCommits, cluster.CommitRecord{ID: rec.id, Report: rec.wire})
		}
	}
	return snap, out, nil
}

// RestoreSession rebuilds a session from a (verified) snapshot: the
// creation platform is decoded, validated like an uploaded one and must
// hash to the snapshot's fingerprint; the carried capacities are written
// into it and the result validated again (platform.ValidateStrict); a
// fresh model is built over it, the snapshot's basis installed, and the
// root solve every commit starts with is run once, and no heuristic —
// from Rebase's canonical footing, which is also what lets a fresh solver
// take a foreign basis warm: one dual-simplex restart, typically zero
// pivots. warm reports whether the rebuild really was warm (no cold
// solves, no cold fallbacks); a basis the solver rejects degrades to a
// correct cold rebuild rather than an error, but one sized for another
// column count is refused before it is expanded.
//
// The session publishes the committed answer the snapshot carries (the
// answer section, or the newest commit record's report when the section
// is empty), which must decode and name the snapshot's epoch; it is the
// report returned. The root solve leaves the solver where the owner's
// commit left its own, so later commits and what-ifs are the owner's.
//
// The session keeps no byte of the buffer snap was decoded from, so
// that buffer may be recycled once this returns: the creation platform
// is copied, and the commit reports into one buffer of the session's
// own, as received, and snap's records are pointed at those copies. The
// session keeps a record as those bytes alone, undecoded (a record
// whose ID or report is empty is dropped): one whose bytes do not decode
// stays on record, so a retry of it answers an error and never applies
// its commit again. Only the answer to publish is decoded.
func RestoreSession(snap *cluster.SessionSnapshot) (*Session, *SolveReport, bool, error) {
	cfg, err := parseConfig(&CreateSessionRequest{
		Objective: snap.Objective,
		Heuristic: snap.Heuristic,
		Payoffs:   snap.Payoffs,
		Seed:      snap.Seed,
		MaxNodes:  snap.MaxNodes,
	})
	if err != nil {
		return nil, nil, false, fmt.Errorf("snapshot configuration: %w", err)
	}
	if got := sessionID(snap.Fingerprint, cfg); got != snap.ID {
		return nil, nil, false, fmt.Errorf("snapshot identity mismatch: id %s does not digest from its fingerprint and configuration (got %s)", snap.ID, got)
	}
	pl, err := platform.Decode(snap.Platform)
	if err != nil {
		return nil, nil, false, fmt.Errorf("snapshot platform: %w", err)
	}
	if fp := pl.Fingerprint(); fp != snap.Fingerprint {
		return nil, nil, false, fmt.Errorf("snapshot platform hashes to %s, the snapshot names %s", fp, snap.Fingerprint)
	}
	if err := snap.ApplyCapacities(pl); err != nil {
		return nil, nil, false, err
	}
	if err := pl.ValidateStrict(); err != nil {
		return nil, nil, false, fmt.Errorf("snapshot capacities: %w", err)
	}
	s, pr, err := buildSession(pl, cfg, snap.Fingerprint)
	if err != nil {
		return nil, nil, false, err
	}
	s.created = bytes.Clone(snap.Platform)
	cols, upper, weights, err := snap.Basis(s.cols)
	if err != nil {
		return nil, nil, false, err
	}
	size := 0
	for _, rec := range snap.RecentCommits {
		size += len(rec.Report)
	}
	kept := make([]byte, 0, size)
	var records []commitRecord
	for i, rec := range snap.RecentCommits {
		at := len(kept)
		kept = append(kept, rec.Report...)
		snap.RecentCommits[i].Report = kept[at:len(kept):len(kept)]
		if rec.ID != "" && len(rec.Report) > 0 {
			records = append(records, commitRecord{id: rec.ID, wire: snap.RecentCommits[i].Report})
		}
	}
	wire, recorded := snap.Answer, len(snap.Answer) == 0
	if n := len(snap.RecentCommits); recorded && n > 0 && snap.RecentCommits[n-1].ID != "" {
		wire = snap.RecentCommits[n-1].Report
	}
	answer := new(SolveReport)
	if err := json.Unmarshal(wire, answer); err != nil || answer.Epoch != snap.Epoch {
		return nil, nil, false, fmt.Errorf("snapshot names no committed answer at its epoch %d", snap.Epoch)
	}
	// unshared: "locked" trivially holds
	rel, err := s.rootLocked(lp.ImportBasis(cols, upper, weights))
	if err != nil {
		return nil, nil, false, fmt.Errorf("rebuild solve: %w", err)
	}
	s.publishLocked(&committed{pr: pr, basis: rel.Root, epoch: snap.Epoch,
		answer: newAnswer(answer, nil), recorded: recorded, records: records})
	st := s.model.SolverStats()
	warm := st.ColdSolves == 0 && st.ColdFallbacks == 0
	return s, answer, warm, nil
}
