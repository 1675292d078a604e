package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/platform"
)

// SnapshotVersion is the current session-snapshot format version.
// Decode accepts exactly this version: the snapshot is a warm-state
// carrier between replicas of one deployment, not an archival format,
// so "reject and rebuild cold from traffic" is the right behavior for
// a version skew — never a guessed migration of solver state.
const SnapshotVersion = 6

// The wire form: frameMagic, the version (uint32 BE), the hex sha256 of
// the body, then the body — sections of a uint32 BE length and that
// many bytes each: the JSON header, the creation platform, the
// capacities, the basis, the weights, the committed answer, and one
// report per entry of the header's commitIds, in order. The capacities
// section is every cluster's speed and gateway as float64 BE, cluster
// by cluster, then every link's connection budget as a uint32 BE. The
// basis section is uint32 BE words: ncols, m, the m basic columns, the
// at-upper count and that many strictly ascending at-upper columns. The
// weights section is the basis's m dual steepest-edge weights as
// float64 BE, or empty when the basis carries none. The answer section
// is the committed answer's compact report, or empty when that answer
// is the newest commit record's report.
const (
	frameMagic = "schedd-snapshot\n"
	versionAt  = len(frameMagic)
	checksumAt = versionAt + 4
	frameLen   = checksumAt + 2*sha256.Size
)

// SessionSnapshot is the serialized form of one warm scheduling
// session: identity, solver configuration, committed epoch, the
// creation platform description and the committed capacities over it,
// the carried basis and the committed answer. See
// the package documentation for the format contract; Encode and
// DecodeSnapshot seal and verify Version and Checksum. The JSON tags are
// the header section's; fields tagged "-" travel in the frame or in
// sections of their own.
type SessionSnapshot struct {
	Version int `json:"-"`
	// ID is the pool key (digest of creation fingerprint + solver
	// configuration); Fingerprint is the platform fingerprint at
	// session creation. They are carried rather than recomputed so the
	// receiver can verify the snapshot is internally consistent: the
	// ID must equal the digest of Fingerprint plus the configuration
	// fields below.
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`

	Objective string    `json:"objective,omitempty"`
	Heuristic string    `json:"heuristic,omitempty"`
	Payoffs   []float64 `json:"payoffs,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	MaxNodes  int       `json:"maxNodes,omitempty"`

	// Epoch is the committed epoch counter; Platform is the platform
	// description (standard platform JSON) the session was created for,
	// which hashes to Fingerprint. Only capacities change after creation
	// (cluster speeds, gateways, link budgets), so the committed platform
	// is Platform with the carried capacities written in — nothing else
	// needs replaying. Decode hands it over as received: whoever rebuilds
	// from it validates it.
	Epoch    int             `json:"epoch"`
	Platform json.RawMessage `json:"-"`

	// The committed capacities, the carried basis and its weights, as
	// the sections they travel in: written by AppendCapacities and
	// AppendBasis, or slices of DecodeSnapshot's input. ApplyCapacities
	// writes the capacities into a platform of the session's shape, and
	// Basis expands the basis for the receiving solver.
	capsSec, basisSec, wtsSec []byte

	// Answer is the committed answer the session publishes to its
	// queries, in compact report bytes, or empty when it is the newest
	// entry of RecentCommits (a tagged commit's answer is its record's
	// report, which rides in the snapshot once). Stored bytes, like the
	// reports: Encode copies them, Decode slices them out of its input.
	Answer json.RawMessage `json:"-"`

	// RecentCommits records the most recently applied tagged epoch
	// commits, oldest first (the router's idempotency tags and the
	// exact reports they answered with). They ride in the snapshot so a
	// replica promoted after the owner's death can recognize the retry
	// of a commit the owner had already applied and replicated, and
	// answer it with the original report instead of applying it twice —
	// a bounded list rather than just the last commit, because distinct
	// clients may interleave commits between an original and its retry.
	RecentCommits []CommitRecord `json:"-"`

	// Checksum is sha256 (hex) over the body bytes exactly as sent.
	Checksum string `json:"-"`
}

// CommitRecord is one entry of the snapshot's commit-dedup record:
// the idempotency tag of an applied epoch commit and the serialized
// report it was answered with — stored bytes: Encode copies them,
// Decode slices them out of its input, neither parses them.
type CommitRecord struct {
	ID     string
	Report json.RawMessage
}

// header is the JSON header section: the snapshot's tagged fields plus
// the commit IDs, whose reports follow as sections in the same order.
type header struct {
	*SessionSnapshot
	CommitIDs []string `json:"commitIds,omitempty"`
}

// AppendCapacities appends pl's capacities to dst in the capacities
// section's form and makes the appended bytes the snapshot's capacities
// section: dst's tail, which must not change until the snapshot is
// sealed.
func (s *SessionSnapshot) AppendCapacities(dst []byte, pl *platform.Platform) []byte {
	start := len(dst)
	for _, c := range pl.Clusters {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Speed))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Gateway))
	}
	for _, l := range pl.Links {
		dst = binary.BigEndian.AppendUint32(dst, uint32(l.MaxConnect))
	}
	s.capsSec = dst[start:len(dst):len(dst)]
	return dst
}

// AppendBasis appends a basis of a solver with ncols internal columns,
// in lp.Basis's exported form (lp.Basis.View's slices), to dst in the
// basis and weights sections' forms and makes the appended bytes those
// sections: dst's tail, which must not change until the snapshot is
// sealed.
func (s *SessionSnapshot) AppendBasis(dst []byte, ncols int, cols, upper []int32, weights []float64) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(ncols))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(cols)))
	for _, c := range cols {
		dst = binary.BigEndian.AppendUint32(dst, uint32(c))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(upper)))
	for _, j := range upper {
		dst = binary.BigEndian.AppendUint32(dst, uint32(j))
	}
	mid := len(dst)
	for _, w := range weights {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(w))
	}
	s.basisSec, s.wtsSec = dst[start:mid:mid], dst[mid:len(dst):len(dst)]
	return dst
}

// ApplyCapacities writes the carried capacities into pl, a platform of
// the session's shape — its creation platform, decoded: each cluster's
// speed and gateway, each link's budget. A section whose length does not
// fit pl's clusters and links is refused before anything is written.
// What the values say is the caller's to validate
// (platform.Platform.ValidateStrict): the codec cannot know a platform.
func (s *SessionSnapshot) ApplyCapacities(pl *platform.Platform) error {
	sec := s.capsSec
	if want := 16*len(pl.Clusters) + 4*len(pl.Links); len(sec) != want {
		return fmt.Errorf("cluster: snapshot capacities section is %d bytes, want %d for %d clusters and %d links",
			len(sec), want, len(pl.Clusters), len(pl.Links))
	}
	for k := range pl.Clusters {
		c := &pl.Clusters[k]
		c.Speed = math.Float64frombits(binary.BigEndian.Uint64(sec))
		c.Gateway = math.Float64frombits(binary.BigEndian.Uint64(sec[8:]))
		sec = sec[16:]
	}
	for i := range pl.Links {
		pl.Links[i].MaxConnect = int(binary.BigEndian.Uint32(sec))
		sec = sec[4:]
	}
	return nil
}

// Basis returns the carried basis in lp.ImportBasis's form, in slices
// of its own, for a solver of ncols internal columns: the basic
// columns, the ascending at-upper columns and the weights (nil when the
// basis carried none). A basis over any other column count than ncols
// is refused before it is expanded: a decoded section's width comes off
// the wire, and a forged one would otherwise size the allocation.
func (s *SessionSnapshot) Basis(ncols int) (cols, upper []int32, weights []float64, err error) {
	n, basic, atUpper, err := splitBasis(s.basisSec)
	if err != nil {
		return nil, nil, nil, err
	}
	if n != 0 && int(n) != ncols {
		return nil, nil, nil, fmt.Errorf("cluster: snapshot basis spans %d columns, the solver has %d", n, ncols)
	}
	cols, upper = words(basic), words(atUpper)
	if len(s.wtsSec) > 0 {
		weights = make([]float64, len(s.wtsSec)/8)
		for i := range weights {
			weights[i] = math.Float64frombits(binary.BigEndian.Uint64(s.wtsSec[8*i:]))
		}
	}
	return cols, upper, weights, nil
}

// words expands uint32 BE words.
func words(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
	}
	return out
}

// complete reports whether the snapshot names a session, a platform, a
// basis and a committed answer — its own, or the newest record's.
func (s *SessionSnapshot) complete() bool {
	return s.ID != "" && len(s.Platform) > 0 && len(s.basisSec) > 0 &&
		(len(s.Answer) > 0 || len(s.RecentCommits) > 0)
}

// cutSection splits the next section off body. Its declared length is
// only ever compared with the bytes that remain, never allocated from.
func cutSection(body []byte) (section, rest []byte, err error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("cluster: snapshot ends %d bytes into a section length", len(body))
	}
	n := uint64(binary.BigEndian.Uint32(body))
	if body = body[4:]; n > uint64(len(body)) {
		return nil, nil, fmt.Errorf("cluster: snapshot section declares %d bytes, %d remain", n, len(body))
	}
	return body[:n:n], body[n:], nil
}

func appendSection(out, section []byte) []byte {
	return append(binary.BigEndian.AppendUint32(out, uint32(len(section))), section...)
}

// splitBasis validates a basis section in place and returns its
// column count and the words of its basic and its at-upper columns.
// Each count is compared with the words that remain, and the at-upper
// columns must ascend strictly below ncols; nothing is allocated.
// Whether the basic columns fit the receiving solver is its business
// (lp.ImportBasis), and so are the weights' values.
func splitBasis(sec []byte) (ncols uint32, basic, atUpper []byte, err error) {
	if len(sec) < 8 {
		return 0, nil, nil, fmt.Errorf("cluster: snapshot basis section is %d bytes, too short for its counts", len(sec))
	}
	ncols, m := binary.BigEndian.Uint32(sec), uint64(binary.BigEndian.Uint32(sec[4:]))
	if sec = sec[8:]; m == 0 || m >= uint64(len(sec)/4) {
		return 0, nil, nil, fmt.Errorf("cluster: snapshot basis declares %d basic columns, %d bytes remain", m, len(sec))
	}
	basic, sec = sec[:4*m], sec[4*m:]
	n, atUpper := uint64(binary.BigEndian.Uint32(sec)), sec[4:]
	if n != uint64(len(atUpper)/4) || len(atUpper)%4 != 0 {
		return 0, nil, nil, fmt.Errorf("cluster: snapshot basis declares %d at-upper columns in %d bytes", n, len(atUpper))
	}
	for i := 0; i < len(atUpper); i += 4 {
		j := binary.BigEndian.Uint32(atUpper[i:])
		if j >= ncols || (i > 0 && j <= binary.BigEndian.Uint32(atUpper[i-4:])) {
			return 0, nil, nil, fmt.Errorf("cluster: snapshot at-upper column %d out of order or not below %d", j, ncols)
		}
	}
	return ncols, basic, atUpper, nil
}

// Encode seals the snapshot into a buffer of its own; see AppendEncode.
func (s *SessionSnapshot) Encode() ([]byte, error) {
	size := frameLen + 512 + len(s.Platform) + len(s.capsSec) + len(s.basisSec) + len(s.wtsSec) + len(s.Answer) + 4*6
	for _, rec := range s.RecentCommits {
		size += 4 + len(rec.Report)
	}
	return s.AppendEncode(make([]byte, 0, size))
}

// AppendEncode seals the snapshot (Version stamped, Checksum computed)
// and appends its wire form to dst: the header is marshalled, and every
// other section — the platform, the capacities, the basis, its weights,
// the answer and the commit reports — appended as the bytes it already
// is.
func (s *SessionSnapshot) AppendEncode(dst []byte) ([]byte, error) {
	if !s.complete() {
		return dst, fmt.Errorf("cluster: snapshot missing session id, platform, basis or committed answer (session never solved?)")
	}
	ids := make([]string, len(s.RecentCommits))
	for i, rec := range s.RecentCommits {
		ids[i] = rec.ID
	}
	hdr, err := json.Marshal(header{s, ids})
	if err != nil {
		return dst, fmt.Errorf("cluster: encoding snapshot header: %w", err)
	}
	start := len(dst)
	out := append(dst, frameMagic...)
	out = binary.BigEndian.AppendUint32(out, SnapshotVersion)
	out = append(out, make([]byte, frameLen-checksumAt)...)
	for _, sec := range [][]byte{hdr, s.Platform, s.capsSec, s.basisSec, s.wtsSec, s.Answer} {
		out = appendSection(out, sec)
	}
	for _, rec := range s.RecentCommits {
		out = appendSection(out, rec.Report)
	}
	frame := out[start:]
	sum := sha256.Sum256(frame[frameLen:])
	hex.Encode(frame[checksumAt:frameLen], sum[:])
	s.Version, s.Checksum = SnapshotVersion, string(frame[checksumAt:frameLen])
	return out, nil
}

// DecodeSnapshot verifies and opens a snapshot in place: the frame's
// version first, then the checksum over the received body bytes, then a
// strict decode of the header and a validation of the basis section
// and of the weights section's length (none, or one float64 per basic
// column), and that a committed answer is named (an answer section, or
// a commit record whose newest report it is). The platform, the
// capacities, the basis and weights sections, the answer and the commit
// reports are slices of data — the snapshot aliases it, so data must
// outlive it — with every section length checked against the bytes
// that remain; the basis is expanded only when Basis is asked, the
// capacities only when ApplyCapacities is. Any failure is an error — the
// caller falls back to building the session cold from traffic rather
// than trusting damaged warm state.
func DecodeSnapshot(data []byte) (*SessionSnapshot, error) {
	if len(data) < frameLen || string(data[:versionAt]) != frameMagic {
		return nil, fmt.Errorf("cluster: snapshot version: no format-%d frame (older formats are refused, not migrated)", SnapshotVersion)
	}
	if v := binary.BigEndian.Uint32(data[versionAt:]); v != SnapshotVersion {
		return nil, fmt.Errorf("cluster: snapshot version %d, this build speaks %d", v, SnapshotVersion)
	}
	body := data[frameLen:]
	sum := sha256.Sum256(body)
	var want [frameLen - checksumAt]byte
	hex.Encode(want[:], sum[:])
	if !bytes.Equal(want[:], data[checksumAt:frameLen]) {
		return nil, fmt.Errorf("cluster: snapshot checksum mismatch (corrupt or torn write)")
	}
	hdr, body, err := cutSection(body)
	if err != nil {
		return nil, err
	}
	s := &SessionSnapshot{Version: SnapshotVersion, Checksum: string(want[:])}
	h := header{SessionSnapshot: s}
	dec := json.NewDecoder(bytes.NewReader(hdr))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("cluster: decoding snapshot header: %w", err)
	}
	if dec.InputOffset() != int64(len(hdr)) {
		return nil, fmt.Errorf("cluster: snapshot header has trailing bytes")
	}
	if s.Platform, body, err = cutSection(body); err != nil {
		return nil, err
	}
	if s.capsSec, body, err = cutSection(body); err != nil {
		return nil, err
	}
	if s.basisSec, body, err = cutSection(body); err != nil {
		return nil, err
	}
	_, basic, _, err := splitBasis(s.basisSec)
	if err != nil {
		return nil, err
	}
	if s.wtsSec, body, err = cutSection(body); err != nil {
		return nil, err
	}
	if n := len(s.wtsSec); n != 0 && n != 2*len(basic) {
		return nil, fmt.Errorf("cluster: snapshot weights section is %d bytes, want 0 or %d for %d basic columns", n, 2*len(basic), len(basic)/4)
	}
	if s.Answer, body, err = cutSection(body); err != nil {
		return nil, err
	}
	s.RecentCommits = make([]CommitRecord, len(h.CommitIDs))
	for i, id := range h.CommitIDs {
		s.RecentCommits[i].ID = id
		if s.RecentCommits[i].Report, body, err = cutSection(body); err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("cluster: snapshot has %d bytes past the %d reports it names", len(body), len(h.CommitIDs))
	}
	if !s.complete() {
		return nil, fmt.Errorf("cluster: snapshot incomplete")
	}
	return s, nil
}
