package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// SnapshotVersion is the current session-snapshot format version.
// Decode accepts exactly this version: the snapshot is a warm-state
// carrier between replicas of one deployment, not an archival format,
// so "reject and rebuild cold from traffic" is the right behavior for
// a version skew — never a guessed migration of solver state.
const SnapshotVersion = 3

// The wire form: frameMagic, the version (uint32 BE), the hex sha256 of
// the body, then the body — sections of a uint32 BE length and that
// many bytes each: the JSON header, the platform, and one report per
// entry of the header's commitIds, in order.
const (
	frameMagic = "schedd-snapshot\n"
	versionAt  = len(frameMagic)
	checksumAt = versionAt + 4
	frameLen   = checksumAt + 2*sha256.Size
)

// SessionSnapshot is the serialized form of one warm scheduling
// session: identity, solver configuration, committed epoch, the
// current (drifted) platform description, and the carried basis in
// its exported form. See the package documentation for the format
// contract; Encode/Decode seal and verify Version and Checksum. The
// JSON tags are the header section's; fields tagged "-" travel in the
// frame or in sections of their own.
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

	// Epoch is the committed epoch counter; Platform is the drifted
	// platform description (standard platform JSON) whose capacities
	// ARE the committed state — nothing else needs replaying. Decode
	// hands it over as received: whoever rebuilds from it validates it.
	Epoch    int             `json:"epoch"`
	Platform json.RawMessage `json:"-"`

	// BasisCols is the exported basic column set; BasisUpper lists the
	// indices of nonbasic-at-upper columns (sparse — the dense bool
	// vector is almost entirely false) out of BasisNcols total solver
	// columns. BasisNcols 0 with nil BasisUpper means the producing
	// basis carried no at-upper statuses.
	BasisCols  []int `json:"basisCols"`
	BasisUpper []int `json:"basisUpper,omitempty"`
	BasisNcols int   `json:"basisNcols,omitempty"`

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

// SetBasis stores an exported basis (lp.Basis.Export's two slices) in
// the snapshot's sparse serialized form.
func (s *SessionSnapshot) SetBasis(cols []int, upper []bool) {
	s.BasisCols = append([]int(nil), cols...)
	s.BasisUpper = nil
	s.BasisNcols = len(upper)
	for j, at := range upper {
		if at {
			s.BasisUpper = append(s.BasisUpper, j)
		}
	}
}

// Basis reconstructs the exported-basis slices for lp.ImportBasis.
// upper is nil when the snapshot carried no at-upper vector.
func (s *SessionSnapshot) Basis() (cols []int, upper []bool) {
	cols = append([]int(nil), s.BasisCols...)
	if s.BasisNcols > 0 {
		upper = make([]bool, s.BasisNcols)
		for _, j := range s.BasisUpper {
			if j >= 0 && j < s.BasisNcols {
				upper[j] = true
			}
		}
	}
	return cols, upper
}

func (s *SessionSnapshot) complete() bool {
	return s.ID != "" && len(s.Platform) > 0 && len(s.BasisCols) > 0
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

// Encode seals the snapshot (Version stamped, Checksum computed) and
// returns its wire form: the header is marshalled, the platform and
// the commit reports are appended as the bytes they already are.
func (s *SessionSnapshot) Encode() ([]byte, error) {
	if !s.complete() {
		return nil, fmt.Errorf("cluster: snapshot missing session id, platform or basis (session never solved?)")
	}
	ids := make([]string, len(s.RecentCommits))
	size := frameLen + 8 + len(s.Platform)
	for i, rec := range s.RecentCommits {
		ids[i] = rec.ID
		size += 4 + len(rec.Report)
	}
	hdr, err := json.Marshal(header{s, ids})
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding snapshot header: %w", err)
	}
	out := make([]byte, frameLen, size+len(hdr))
	copy(out, frameMagic)
	binary.BigEndian.PutUint32(out[versionAt:], SnapshotVersion)
	out = appendSection(appendSection(out, hdr), s.Platform)
	for _, rec := range s.RecentCommits {
		out = appendSection(out, rec.Report)
	}
	sum := sha256.Sum256(out[frameLen:])
	hex.Encode(out[checksumAt:frameLen], sum[:])
	s.Version, s.Checksum = SnapshotVersion, string(out[checksumAt:frameLen])
	return out, nil
}

// DecodeSnapshot verifies and opens a snapshot: the frame's version
// first, then the checksum over the received body bytes, then a strict
// decode of the header; the platform and the commit reports are sliced
// out of data — the snapshot aliases it — with every section length
// checked against the bytes that remain. Any failure is an error — the
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
