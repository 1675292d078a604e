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
// session is fully derivable from (drifted platform, configuration,
// carried basis, epoch counter): epochs mutate the platform in place
// and every solve re-injects its capacities, so no mutation history
// needs shipping.

// encodePlatform appends a snapshot's platform to dst as the bytes
// json.Marshal(pl) returns, encoded straight into dst rather than
// copied out of encoding/json's buffer; a test replaces it to watch the
// session lock while it runs.
var encodePlatform = func(dst []byte, pl *platform.Platform) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(pl); err != nil {
		return dst, err
	}
	return buf.Bytes()[:buf.Len()-1], nil // Encode ends the value with a newline Marshal does not write
}

// Snapshot serializes the session's committed state: identity,
// configuration, epoch, the current drifted platform and the carried
// basis (read in place, not copied), plus the commit-dedup record as
// the bytes it already holds (shared with the record, not copied). The
// session mutex is held only to read which platform, basis, epoch and
// record are committed; the encoding runs after it is released, which
// is safe because none of them is written once published — a commit
// replaces the platform and the basis, and appends to the record or
// moves it to a new array. The returned snapshot is not yet sealed —
// the store or transfer path calls Encode, which stamps the version
// and checksum.
func (s *Session) Snapshot() (*cluster.SessionSnapshot, error) {
	snap, _, err := s.snapshotInto(nil)
	return snap, err
}

// snapshotInto is Snapshot with the platform JSON appended to dst: the
// snapshot's Platform is the appended tail of the returned slice, which
// seal encodes into the buffer it seals into.
func (s *Session) snapshotInto(dst []byte) (*cluster.SessionSnapshot, []byte, error) {
	s.mu.Lock()
	pl, basis, epoch, records := s.pl, s.basis, s.epoch, s.recentCommits
	s.mu.Unlock()
	if basis == nil {
		return nil, dst, fmt.Errorf("session %s has no carried basis yet", s.id)
	}
	out, err := encodePlatform(dst, pl)
	if err != nil {
		return nil, dst, fmt.Errorf("encoding platform: %w", err)
	}
	plJSON := out[len(dst):len(out):len(out)]
	snap := &cluster.SessionSnapshot{
		ID:          s.id,
		Fingerprint: s.fingerprint,
		Objective:   s.cfg.objName,
		Heuristic:   s.cfg.heur,
		Payoffs:     s.cfg.payoffs,
		Seed:        s.cfg.seed,
		MaxNodes:    s.cfg.maxNodes,
		Epoch:       epoch,
		Platform:    plJSON,
	}
	cols, upper, weights := basis.View()
	snap.SetBasis(s.model.SolverCols(), cols, upper, weights)
	snap.RecentCommits = make([]cluster.CommitRecord, 0, len(records))
	for _, rec := range records {
		if rec.wire != nil {
			snap.RecentCommits = append(snap.RecentCommits, cluster.CommitRecord{ID: rec.id, Report: rec.wire})
		}
	}
	return snap, out, nil
}

// RestoreSession rebuilds a session from a (verified) snapshot: the
// drifted platform is decoded and validated, a fresh model is built
// over it, the snapshot's basis installed, and the committed answer is
// re-solved and published by the commit solve every commit runs — from
// Rebase's canonical footing, which is also what lets a fresh solver
// take a foreign basis warm: one dual-simplex restart, typically zero
// pivots. warm reports whether the rebuild really was warm (no cold
// solves, no cold fallbacks); a basis the solver rejects degrades to a
// correct cold rebuild rather than an error, but one sized for another
// column count is refused before it is expanded. The initial report is
// returned so a caller can check bit-compatibility against the
// pre-transfer answers.
//
// The session keeps no byte of the buffer snap was decoded from, so
// that buffer may be recycled once this returns: each commit report is
// written into one buffer of the session's own — in this build's wire
// form (marshalReport) when it decodes, as received otherwise — and
// snap's records are pointed at those copies. A record an older build
// wrote therefore carries nothing that build added to a report into the
// snapshots this session seals.
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
	s, err := buildSession(pl, cfg)
	if err != nil {
		return nil, nil, false, err
	}
	// The session keeps its creation-time identity: the drifted
	// platform hashes differently, but the pool key and fingerprint
	// are those of the platform the session was created for.
	s.id = snap.ID
	s.fingerprint = snap.Fingerprint
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
		if ok {
			// unshared: "locked" trivially holds
			s.recordCommitLocked(commitRecord{id: rec.ID, rep: &rep, wire: rec.Report})
		}
	}
	s.basis = lp.ImportBasis(cols, upper, weights)
	rep, err := s.commitLocked() // unshared: "locked" trivially holds
	if err != nil {
		return nil, nil, false, fmt.Errorf("rebuild solve: %w", err)
	}
	st := s.model.SolverStats()
	warm := st.ColdSolves == 0 && st.ColdFallbacks == 0
	return s, rep, warm, nil
}
