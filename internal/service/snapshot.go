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
// The session mutex is held only to read which platform, basis, epoch,
// answer and record are committed; the sections are written after it is
// released, which is safe because none of them is written once
// published — a commit replaces the platform, the basis and the answer,
// and appends to the record or moves it to a new array. The returned
// snapshot is not yet sealed — the store or transfer path calls Encode,
// which stamps the version and checksum.
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
	s.mu.Lock()
	pl, basis, epoch, records := s.pl, s.basis, s.epoch, s.recentCommits
	answer, recorded := s.committed.Load(), s.answerRec
	s.mu.Unlock()
	if basis == nil {
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
		Epoch:       epoch,
		Platform:    s.created,
	}
	out := dst
	if !recorded {
		var ok bool
		if out, ok = encodeAnswer(dst, &answer.rep); !ok {
			return nil, dst, errNonFinite
		}
		snap.Answer = out[len(dst):len(out):len(out)]
	}
	out = snap.AppendCapacities(out, pl)
	cols, upper, weights := basis.View()
	out = snap.AppendBasis(out, s.model.SolverCols(), cols, upper, weights)
	snap.RecentCommits = make([]cluster.CommitRecord, 0, len(records))
	for _, rec := range records {
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
// commit solve every commit runs is run once — from Rebase's canonical
// footing, which is also what lets a fresh solver take a foreign basis
// warm: one dual-simplex restart, typically zero pivots. warm reports
// whether the rebuild really was warm (no cold solves, no cold
// fallbacks); a basis the solver rejects degrades to a correct cold
// rebuild rather than an error, but one sized for another column count
// is refused before it is expanded.
//
// The session publishes the committed answer the snapshot carries, not
// its own solve's: that solve reaches the owner's basis without the
// owner's pivots, so its floats may differ from the owner's in the last
// bits, and a query must answer with the owner's bytes. That answer (the
// answer section, or the newest commit record's report when the section
// is empty) must decode and name the snapshot's epoch; it is the report
// returned. The solve leaves the solver on the committed basis, so the
// session's later commits are the owner's bit for bit, and its what-ifs
// agree with the owner's to rounding.
//
// The session keeps no byte of the buffer snap was decoded from, so
// that buffer may be recycled once this returns: the creation platform
// is copied, and each commit report is written into one buffer of the
// session's own — in this build's wire form when it decodes, as
// received otherwise — and snap's records are pointed at those copies.
// A record an older build wrote therefore carries nothing that build
// added to a report into the snapshots this session seals. The session
// keeps a record as those bytes alone (a record whose ID is empty or
// whose report does not decode is dropped); the decoded report is kept
// only when it is the newest record's, to publish.
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
	s, err := buildSession(pl, cfg, snap.Fingerprint)
	if err != nil {
		return nil, nil, false, err
	}
	s.created = bytes.Clone(snap.Platform)
	s.epoch = snap.Epoch
	s.answers.rotate(s.epoch) // unshared: rekey the table to the true epoch
	cols, upper, weights, err := snap.Basis(s.model.SolverCols())
	if err != nil {
		return nil, nil, false, err
	}
	size := 0
	for _, rec := range snap.RecentCommits {
		size += len(rec.Report)
	}
	kept := make([]byte, 0, size)
	var newest *SolveReport // the newest record's report, when it decodes
	for i, rec := range snap.RecentCommits {
		// Restore the commit-dedup record entry by entry (an ID and its
		// report together or not at all, so a matched ID always has a
		// report to answer with).
		var rep SolveReport
		ok := rec.ID != "" && len(rec.Report) > 0 && json.Unmarshal(rec.Report, &rep) == nil
		at := len(kept)
		if ok {
			kept, ok = appendReport(kept, &rep, 0, true)
		}
		if !ok {
			kept = append(kept[:at], rec.Report...)
		}
		rec.Report = kept[at:len(kept):len(kept)]
		snap.RecentCommits[i].Report = rec.Report
		newest = nil
		if ok {
			// unshared: "locked" trivially holds
			s.recordCommitLocked(commitRecord{id: rec.ID, wire: rec.Report})
			newest = &rep
		}
	}
	answer, recorded := newest, len(snap.Answer) == 0
	if !recorded {
		answer = new(SolveReport)
		if err := json.Unmarshal(snap.Answer, answer); err != nil {
			return nil, nil, false, fmt.Errorf("snapshot committed answer: %w", err)
		}
	}
	if answer == nil || answer.Epoch != snap.Epoch {
		return nil, nil, false, fmt.Errorf("snapshot names no committed answer at its epoch %d", snap.Epoch)
	}
	s.basis = lp.ImportBasis(cols, upper, weights)
	if _, err := s.commitLocked(); err != nil { // unshared: "locked" trivially holds
		return nil, nil, false, fmt.Errorf("rebuild solve: %w", err)
	}
	s.publishLocked(answer, recorded, nil)
	st := s.model.SolverStats()
	warm := st.ColdSolves == 0 && st.ColdFallbacks == 0
	return s, answer, warm, nil
}
