package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
)

// recordDepth is the depth of the service's commit-dedup record
// (service.commitDedupDepth): the steady-state snapshot carries that
// many reports, and they are three quarters of its bytes.
const recordDepth = 8

// Sections of a sealed snapshot's body, in order, the commit reports
// after them.
const (
	secHeader = iota
	secPlatform
	secCapacities
	secBasis
	secWeights
	secAnswer
	secReports
)

// sealedPlatform is the platform whose capacities the sealed snapshot
// carries: three clusters and two links.
var sealedPlatform = &platform.Platform{
	Routers: 2,
	Links:   []platform.Link{{U: 0, V: 1, BW: 10, MaxConnect: 5}, {U: 1, V: 0, BW: 2.5, MaxConnect: 7}},
	Clusters: []platform.Cluster{
		{Name: "a", Speed: 100, Gateway: 250.5}, {Name: "b", Speed: 80.25, Gateway: 1e-3, Router: 1}, {Name: "c", Gateway: 3},
	},
}

// sealedSnapshot builds a realistic, sealed snapshot — with a full
// commit record, and the committed answer of an untagged commit after
// it — and its wire bytes for corruption tests.
func sealedSnapshot(t testing.TB) (*SessionSnapshot, []byte) {
	t.Helper()
	snap := &SessionSnapshot{
		ID:          "deadbeefcafe0123456789ab",
		Fingerprint: "fp:test-platform",
		Objective:   "maxmin",
		Heuristic:   "lprg",
		Payoffs:     []float64{1, 2.5, 3},
		Seed:        42,
		Epoch:       7,
		Platform:    json.RawMessage(`{"hosts":[{"name":"h0","compute":1.5}],"links":[]}`),
		Answer:      json.RawMessage(`{"heuristic":"lprg","value":48.5,"epoch":7}`),
	}
	snap.AppendBasis(snap.AppendCapacities(nil, sealedPlatform), 6, sealedCols, sealedUpper, sealedWeights)
	for i := 0; i < recordDepth; i++ {
		snap.RecentCommits = append(snap.RecentCommits, CommitRecord{
			ID:     fmt.Sprintf("commit-%02d", i),
			Report: json.RawMessage(fmt.Sprintf(`{"heuristic":"lprg","value":%d.5,"epoch":%d}`, 40+i, i)),
		})
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return snap, data
}

// The sealed snapshot's basis: a solver of 6 columns, its basic columns,
// its at-upper columns and its steepest-edge weights, one per basic
// column.
var (
	sealedCols    = []int32{3, 1, 4, 1, 5}
	sealedUpper   = []int32{1, 4}
	sealedWeights = []float64{1, 2.5, 0.125, 3e-7, 1e6}
)

// formatTwoDocument is a well-formed snapshot of the previous format —
// one JSON document, checksum over its canonical re-marshal — byte for
// byte what the last format-2 build's Encode returned (and its
// DecodeSnapshot accepted).
const formatTwoDocument = `{"version":2,"id":"deadbeefcafe0123456789ab","fingerprint":"fp:test-platform","heuristic":"lprg","epoch":1,"platform":{"hosts":[]},"basisCols":[0,1],"basisUpper":[0],"basisNcols":2,"recentCommits":[{"id":"commit-00","report":{"value":40.5,"epoch":1}}],"checksum":"0936f1714c924f32c92057dee3cc2669472850e3127ad85847fa0c1921540363"}`

// reseal recomputes the frame checksum over data's body, so a test can
// damage the structure behind a checksum that still verifies.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	sum := sha256.Sum256(out[frameLen:])
	hex.Encode(out[checksumAt:frameLen], sum[:])
	return out
}

// sectionOffsets returns where each section's length prefix sits.
func sectionOffsets(t testing.TB, data []byte) []int {
	t.Helper()
	var at []int
	for off := frameLen; off < len(data); {
		at = append(at, off)
		off += 4 + int(binary.BigEndian.Uint32(data[off:]))
	}
	return at
}

// mustFail asserts decode rejects the bytes without panicking, and
// returns the error.
func mustFail(t *testing.T, data []byte, what string) error {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: DecodeSnapshot panicked: %v", what, r)
		}
	}()
	snap, err := DecodeSnapshot(data)
	if err == nil {
		t.Fatalf("%s: decode accepted corrupt snapshot %+v", what, snap)
	}
	return err
}

func mustFailOnVersion(t *testing.T, data []byte, what string) {
	t.Helper()
	if err := mustFail(t, data, what); !strings.Contains(err.Error(), "version") {
		t.Fatalf("%s: want a version error, got: %v", what, err)
	}
}

// TestSnapshotDecodeBitFlips: a sealed snapshot decodes to what was
// sealed, and every single-bit flip of it — in the frame, the header,
// the platform, the capacities, the basis, the weights, the answer or
// any of the eight commit records — is a decode error: the checksum is
// over the bytes as sent.
func TestSnapshotDecodeBitFlips(t *testing.T) {
	orig, data := sealedSnapshot(t)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("pristine snapshot must decode: %v", err)
	}
	if !sameSnapshot(got, orig) {
		t.Fatalf("pristine snapshot decoded to a different one:\n got %+v\nwant %+v", got, orig)
	}
	// Flip every bit of every byte — frame, header, platform,
	// capacities, basis, weights, answer and all eight reports: each one
	// is an error. The checksum is over the bytes
	// as sent, so there is no flip it cannot see (format 2 hashed a
	// re-marshal, and a case flip in a key name slipped through).
	buf := make([]byte, len(data))
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			copy(buf, data)
			buf[i] ^= 1 << bit
			mustFail(t, buf, fmt.Sprintf("bit flip %d/%d", i, bit))
		}
	}
}

func TestSnapshotDecodeTruncation(t *testing.T) {
	_, data := sealedSnapshot(t)
	// Truncation at every boundary, including the empty prefix — as cut,
	// and again behind a checksum recomputed over what is left, which
	// leaves only the section structure to catch it.
	for n := 0; n < len(data); n++ {
		mustFail(t, data[:n], "truncation")
		if n >= frameLen {
			mustFail(t, reseal(data[:n]), "resealed truncation")
		}
	}
	// Trailing bytes: too few for a section, a whole empty section, and
	// a whole section with content.
	for _, tail := range []string{"{}", "\x00\x00\x00\x00", "\x00\x00\x00\x02{}"} {
		grown := append(append([]byte(nil), data...), tail...)
		mustFail(t, grown, "trailing bytes")
		mustFail(t, reseal(grown), "resealed trailing bytes")
	}
}

// corpusFile reads a []byte literal of the committed fuzz corpus.
func corpusFile(t *testing.T, name string) []byte {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot", name))
	if err != nil {
		t.Fatal(err)
	}
	literal := strings.TrimSuffix(strings.TrimPrefix(string(file), "go test fuzz v1\n[]byte("), ")\n")
	data, err := strconv.Unquote(literal)
	if err != nil {
		t.Fatalf("corpus file %s is not a []byte literal: %v", name, err)
	}
	return []byte(data)
}

func TestSnapshotDecodeVersionSkew(t *testing.T) {
	_, data := sealedSnapshot(t)
	// The checksum covers the body, not the frame, so these still carry
	// a VALID checksum: the version gate must reject them before (and
	// independent of) integrity.
	for _, v := range []uint32{SnapshotVersion + 1, SnapshotVersion - 1, 0, math.MaxUint32} {
		skewed := append([]byte(nil), data...)
		binary.BigEndian.PutUint32(skewed[versionAt:], v)
		mustFailOnVersion(t, skewed, fmt.Sprintf("version %d", v))
	}
	// A format-2 document, a format-3 frame (its basis in the JSON
	// header), a format-4 frame (no weights section) and a format-5 frame
	// (the drifted platform as JSON, no capacities or answer section) are
	// refused at the same gate: no second decoder, no migration.
	mustFailOnVersion(t, []byte(formatTwoDocument), "format-2 document")
	mustFailOnVersion(t, corpusFile(t, "format3-full-record"), "format-3 snapshot")
	mustFailOnVersion(t, corpusFile(t, "format4-full-record"), "format-4 snapshot")
	mustFailOnVersion(t, corpusFile(t, "format5-full-record"), "format-5 snapshot")
}

func TestSnapshotDecodeSectionLengths(t *testing.T) {
	_, data := sealedSnapshot(t)
	at := sectionOffsets(t, data)
	if len(at) != secReports+recordDepth {
		t.Fatalf("sealed snapshot has %d sections, want header + platform + capacities + basis + weights + answer + %d reports", len(at), recordDepth)
	}
	// A length that lies — by one byte, by the whole remainder, by all a
	// uint32 can say — on every section, behind a valid checksum.
	for i, off := range at {
		honest := binary.BigEndian.Uint32(data[off:])
		remain := uint32(len(data) - off - 4)
		for _, lie := range []uint32{honest + 1, honest - 1, remain, remain + 1, math.MaxUint32} {
			if lie == honest {
				continue
			}
			lying := append([]byte(nil), data...)
			binary.BigEndian.PutUint32(lying[off:], lie)
			mustFail(t, reseal(lying), fmt.Sprintf("section %d declaring %d bytes for %d", i, lie, honest))
		}
	}
	// The declared length is compared, never allocated from.
	lying := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(lying[at[secPlatform]:], math.MaxUint32)
	lying = reseal(lying)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustFail(t, lying, "4 GiB section")
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a section that declares 4 GiB allocated %d bytes", grew)
	}
	// Section count != commit-ID count: one report short, one over.
	mustFail(t, reseal(data[:at[len(at)-1]]), "last report missing")
	mustFail(t, reseal(append(append([]byte(nil), data...), data[at[len(at)-1]:]...)), "one report too many")
}

func TestSnapshotDecodeFieldTampering(t *testing.T) {
	snap, data := sealedSnapshot(t)
	// Re-encode with single fields altered, then put the original
	// checksum back: integrity must catch every one.
	tamper := []func(s *SessionSnapshot){
		func(s *SessionSnapshot) { s.Epoch++ },
		func(s *SessionSnapshot) { s.ID = "00" + s.ID[2:] },
		func(s *SessionSnapshot) { s.Platform = json.RawMessage(`{"hosts":[],"links":[]}`) },
		func(s *SessionSnapshot) {
			pl := sealedPlatform.Clone()
			pl.Clusters[1].Gateway = math.Nextafter(pl.Clusters[1].Gateway, 1)
			s.AppendCapacities(nil, pl)
		},
		func(s *SessionSnapshot) {
			pl := sealedPlatform.Clone()
			pl.Links[1].MaxConnect++
			s.AppendCapacities(nil, pl)
		},
		func(s *SessionSnapshot) { s.Answer = json.RawMessage(`{"heuristic":"lprg","value":48.25,"epoch":7}`) },
		func(s *SessionSnapshot) { s.Answer = nil },
		func(s *SessionSnapshot) { s.AppendBasis(nil, 6, []int32{4, 1, 4, 1, 5}, sealedUpper, sealedWeights) },
		func(s *SessionSnapshot) { s.AppendBasis(nil, 6, sealedCols, nil, sealedWeights) },
		func(s *SessionSnapshot) {
			s.AppendBasis(nil, 6, sealedCols, sealedUpper, []float64{1, 2.5, 0.125, 3e-7, 1e7})
		},
		func(s *SessionSnapshot) { s.AppendBasis(nil, 6, sealedCols, sealedUpper, nil) },
		func(s *SessionSnapshot) { s.Payoffs[1] = 99 },
		func(s *SessionSnapshot) { s.RecentCommits[3].ID = "commit-xx" },
		func(s *SessionSnapshot) { s.RecentCommits[3].Report = json.RawMessage(`{"value":0}`) },
		func(s *SessionSnapshot) {
			s.RecentCommits[0], s.RecentCommits[1] = s.RecentCommits[1], s.RecentCommits[0]
		},
		func(s *SessionSnapshot) { s.RecentCommits = s.RecentCommits[1:] },
	}
	for i, mutate := range tamper {
		cp := *snap
		cp.Payoffs = append([]float64(nil), snap.Payoffs...)
		cp.RecentCommits = append([]CommitRecord(nil), snap.RecentCommits...)
		mutate(&cp)
		tampered, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(tampered); err != nil {
			t.Fatalf("tamper case %d does not decode even when honestly sealed: %v", i, err)
		}
		copy(tampered[checksumAt:frameLen], data[checksumAt:frameLen])
		mustFail(t, tampered, fmt.Sprintf("tamper case %d", i))
	}
}

func TestSnapshotDecodeHostileInputs(t *testing.T) {
	_, data := sealedSnapshot(t)
	at := sectionOffsets(t, data)
	hdr := string(data[at[0]+4 : at[1]])
	// A header that is well-formed JSON but not ours, behind a valid
	// checksum and in front of the sections it names.
	withHeader := func(hdr string) []byte {
		out := appendSection(append([]byte(nil), data[:frameLen]...), []byte(hdr))
		return reseal(append(out, data[at[1]:]...))
	}
	if _, err := DecodeSnapshot(withHeader(hdr)); err != nil {
		t.Fatalf("the honest header, spliced back, must decode: %v", err)
	}
	for _, in := range [][]byte{
		nil, []byte("null"), []byte("0"), []byte("[]"), []byte(`"x"`), []byte("{"), []byte("{}"),
		[]byte(`{"version":1}`), []byte(`{"version":3,"checksum":"zz"}`),
		[]byte(strings.Repeat("[", 64)),
		[]byte(frameMagic), data[:frameLen], reseal(data[:frameLen]),
		withHeader(`{"surprise":true,` + hdr[1:]),
		withHeader(`{"version":3,` + hdr[1:]),
		withHeader(hdr + "{}"),
		withHeader(hdr + " "),
		withHeader(strings.Replace(hdr, `"epoch":7`, `"epoch":"7"`, 1)),
		withHeader(strings.Replace(hdr, `"id":"deadbeef`, `"id":"","x":"`, 1)),
		withHeader(`{"basisCols":[3,1,4,1,5],` + hdr[1:]), // format 3's basis, in the header
		withHeader("null"),
		withHeader(""),
	} {
		mustFail(t, in, fmt.Sprintf("hostile input %.60q", in))
	}
}

// withSection is the sealed snapshot with its section i replaced by
// sec, resealed.
func withSection(t testing.TB, data []byte, i int, sec []byte) []byte {
	t.Helper()
	at := append(sectionOffsets(t, data), len(data))
	out := appendSection(append([]byte(nil), data[:at[i]]...), sec)
	return reseal(append(out, data[at[i+1]:]...))
}

// basisWords is the sealed snapshot's basis section with its words
// replaced, resealed, in front of the sections that follow it.
func basisWords(t testing.TB, data []byte, words ...uint32) []byte {
	t.Helper()
	var sec []byte
	for _, w := range words {
		sec = binary.BigEndian.AppendUint32(sec, w)
	}
	return withSection(t, data, secBasis, sec)
}

// TestSnapshotDecodeBasisSection holds the binary basis section's
// strictness, each case behind a valid checksum and a section length
// that tells the truth: every count is compared with the words that
// remain, the at-upper columns ascend strictly below ncols, m > 0.
func TestSnapshotDecodeBasisSection(t *testing.T) {
	_, data := sealedSnapshot(t)
	if _, err := DecodeSnapshot(basisWords(t, data, 6, 5, 3, 1, 4, 1, 5, 2, 1, 4)); err != nil {
		t.Fatalf("the honest basis section, rebuilt, must decode: %v", err)
	}
	for name, words := range map[string][]uint32{
		"empty section":              nil,
		"ncols only":                 {6},
		"no basic columns":           {6, 0, 0},
		"m past the section":         {6, 6, 3, 1, 4, 1, 5, 0},
		"m of 4 Gi":                  {6, math.MaxUint32, 3, 1, 4, 1, 5, 0},
		"no at-upper count":          {6, 5, 3, 1, 4, 1, 5},
		"at-upper count over":        {6, 5, 3, 1, 4, 1, 5, 3, 1, 4},
		"at-upper count of 4 Gi":     {6, 5, 3, 1, 4, 1, 5, math.MaxUint32, 1, 4},
		"at-upper count under":       {6, 5, 3, 1, 4, 1, 5, 1, 1, 4},
		"trailing word":              {6, 5, 3, 1, 4, 1, 5, 2, 1, 4, 0},
		"at-upper column = ncols":    {6, 5, 3, 1, 4, 1, 5, 2, 1, 6},
		"at-upper column past ncols": {6, 5, 3, 1, 4, 1, 5, 1, math.MaxUint32},
		"at-upper without ncols":     {0, 5, 3, 1, 4, 1, 5, 1, 0},
		"at-upper descending":        {6, 5, 3, 1, 4, 1, 5, 2, 4, 1},
		"at-upper repeated":          {6, 5, 3, 1, 4, 1, 5, 2, 4, 4},
	} {
		mustFail(t, basisWords(t, data, words...), name)
	}
	// A trailing byte short of a word, and a truncated last word.
	at := sectionOffsets(t, data)
	for name, sec := range map[string][]byte{
		"a byte past the words": append(append([]byte(nil), data[at[secBasis]+4:at[secWeights]]...), 0),
		"a torn last word":      data[at[secBasis]+4 : at[secWeights]-1],
	} {
		mustFail(t, withSection(t, data, secBasis, sec), name)
	}
	// Basic columns out of the receiving solver's range are its
	// business (lp.ImportBasis falls back cold), not the codec's.
	if _, err := DecodeSnapshot(basisWords(t, data, 6, 5, math.MaxUint32, 1, 4, 1, 5, 0)); err != nil {
		t.Fatalf("an out-of-range basic column is the solver's to refuse: %v", err)
	}
}

// weightsSection is the sealed snapshot with its weights section
// replaced by sec, resealed.
func weightsSection(t testing.TB, data, sec []byte) []byte {
	t.Helper()
	return withSection(t, data, secWeights, sec)
}

// TestSnapshotDecodeWeightsSection: the weights section is empty (the
// basis carries no weights) or one float64 per basic column, each case
// behind a valid checksum and a truthful section length; what the
// weights say is the solver's to judge (lp adopts only finite weights
// at least its floor), so a NaN or a negative weight decodes and comes
// back bit for bit.
func TestSnapshotDecodeWeightsSection(t *testing.T) {
	_, data := sealedSnapshot(t)
	at := sectionOffsets(t, data)
	honest := data[at[secWeights]+4 : at[secAnswer]]
	if len(honest) != 8*len(sealedWeights) {
		t.Fatalf("the weights section is %d bytes for %d weights", len(honest), len(sealedWeights))
	}
	none, err := DecodeSnapshot(weightsSection(t, data, nil))
	if err != nil {
		t.Fatalf("an empty weights section must decode: %v", err)
	}
	if _, _, w, err := none.Basis(6); err != nil || w != nil {
		t.Fatalf("an empty weights section expanded to %v (%v)", w, err)
	}
	for _, n := range []int{1, 8, 32, 39, 41, 48, 80} {
		mustFail(t, weightsSection(t, data, make([]byte, n)), fmt.Sprintf("%d-byte weights section", n))
	}
	odd := []float64{math.NaN(), -1, 0, math.Inf(1), math.Copysign(0, -1)}
	var sec []byte
	for _, w := range odd {
		sec = binary.BigEndian.AppendUint64(sec, math.Float64bits(w))
	}
	snap, err := DecodeSnapshot(weightsSection(t, data, sec))
	if err != nil {
		t.Fatalf("weights the solver would refuse are its business, not the codec's: %v", err)
	}
	_, _, w, err := snap.Basis(6)
	if err != nil || len(w) != len(odd) {
		t.Fatalf("odd weights expanded to %v (%v)", w, err)
	}
	for i := range odd {
		if math.Float64bits(w[i]) != math.Float64bits(odd[i]) {
			t.Fatalf("weight %d came back as %v, sent %v", i, w[i], odd[i])
		}
	}
}

// TestSnapshotBasisRefusesForeignWidth: a basis section forged behind
// a valid checksum to span 4 Gi solver columns decodes — the codec
// cannot know the receiving solver's width — but Basis refuses it
// against the solver's column count before expanding anything that
// size, as it refuses any width but the solver's, decoded or as written
// by AppendBasis; the honest width expands, decoded or as written, to
// the same slices.
func TestSnapshotBasisRefusesForeignWidth(t *testing.T) {
	written, data := sealedSnapshot(t)
	snap, err := DecodeSnapshot(basisWords(t, data, math.MaxUint32, 5, 3, 1, 4, 1, 5, 2, 1, 4))
	if err != nil {
		t.Fatalf("a forged width is the solver's to refuse, not the codec's: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err = snap.Basis(6)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a basis over %d columns expanded for a 6-column solver", width(snap))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a 4 Gi-column basis allocated %d bytes", grew)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, honest := range map[string]*SessionSnapshot{"decoded": decoded, "written": written} {
		if _, _, _, err := honest.Basis(7); err == nil {
			t.Fatalf("%s: a 6-column basis expanded for a 7-column solver", name)
		}
		cols, upper, w, err := honest.Basis(6)
		if err != nil || !reflect.DeepEqual(cols, sealedCols) || !reflect.DeepEqual(upper, sealedUpper) || !reflect.DeepEqual(w, sealedWeights) {
			t.Fatalf("%s: the honest basis expanded to %v %v %v (%v)", name, cols, upper, w, err)
		}
	}
}

// TestSnapshotOpensInPlace: DecodeSnapshot opens the capacities, the
// basis and its weights as the sections they arrived in — slices of the
// input, like the platform and the answer — and re-seals to the input's
// bytes.
func TestSnapshotOpensInPlace(t *testing.T) {
	_, data := sealedSnapshot(t)
	opened, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if width(opened) != 6 {
		t.Fatalf("opened basis spans %d columns, want 6", width(opened))
	}
	for name, sec := range map[string][]byte{"capacities": opened.capsSec, "basis": opened.basisSec, "weights": opened.wtsSec, "answer": opened.Answer} {
		if off := bytes.Index(data, sec); off < 0 || &data[off] != &sec[0] {
			t.Fatalf("the opened %s section is not a slice of the input", name)
		}
	}
	if again, err := opened.Encode(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("the opened snapshot re-seals to %d different bytes (%v)", len(again), err)
	}
}

// TestSnapshotSealsLiveBasisInPlace: a live platform's capacities and a
// live basis's slices (AppendCapacities and AppendBasis, as the service
// seals) are written after what the caller's buffer already holds, and
// the sections the snapshot seals are those written bytes, not copies
// of them; sealed after them into the same buffer, the snapshot is the
// same bytes and the buffer's head is left as it was.
func TestSnapshotSealsLiveBasisInPlace(t *testing.T) {
	live, want := sealedSnapshot(t)
	buf := append(make([]byte, 0, 4096), "kept"...)
	buf = live.AppendCapacities(buf, sealedPlatform)
	buf = live.AppendBasis(buf, 6, sealedCols, sealedUpper, sealedWeights)
	head := bytes.Clone(buf)
	basisAt := 4 + len(live.capsSec)
	weightsAt := basisAt + len(live.basisSec)
	if &live.capsSec[0] != &buf[4] || &live.basisSec[0] != &buf[basisAt] || &live.wtsSec[0] != &buf[weightsAt] ||
		len(buf) != weightsAt+len(live.wtsSec) {
		t.Fatal("the sections are not the bytes written into the buffer")
	}
	again, err := live.AppendEncode(buf)
	if err != nil || !bytes.Equal(again[:len(head)], head) || !bytes.Equal(again[len(head):], want) {
		t.Fatalf("AppendEncode after the sections: %q, %v", again, err)
	}
}

// capacitiesOf is pl's capacities, cluster by cluster then link by
// link, as float64 bits and budgets.
func capacitiesOf(pl *platform.Platform) []uint64 {
	var out []uint64
	for _, c := range pl.Clusters {
		out = append(out, math.Float64bits(c.Speed), math.Float64bits(c.Gateway))
	}
	for _, l := range pl.Links {
		out = append(out, uint64(l.MaxConnect))
	}
	return out
}

// TestSnapshotCapacitiesSection: the capacities travel bit for bit —
// sealed from the section AppendCapacities wrote from a platform or
// re-sealed from the section they were decoded from — and
// ApplyCapacities writes them into a
// platform of the same shape, whatever they say (a NaN speed, a budget
// of 2³² − 1: judging values is the restore's, which validates the
// platform), and refuses a platform of another shape, writing nothing.
func TestSnapshotCapacitiesSection(t *testing.T) {
	odd := sealedPlatform.Clone()
	odd.Clusters[0].Speed = math.NaN()
	odd.Clusters[2].Gateway = math.Copysign(0, -1)
	odd.Links[1].MaxConnect = math.MaxUint32
	live, _ := sealedSnapshot(t)
	for name, pl := range map[string]*platform.Platform{"sealed": sealedPlatform, "odd": odd} {
		live.AppendCapacities(nil, pl)
		data, err := live.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if want := 16*len(pl.Clusters) + 4*len(pl.Links); len(data[sectionOffsets(t, data)[secCapacities]+4:sectionOffsets(t, data)[secBasis]]) != want {
			t.Fatalf("%s: the capacities section is not %d bytes", name, want)
		}
		decoded, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		for form, snap := range map[string]*SessionSnapshot{"written": live, "decoded": decoded} {
			dst := sealedPlatform.Clone()
			for i := range dst.Clusters {
				dst.Clusters[i].Speed, dst.Clusters[i].Gateway = 1, 1
			}
			if err := snap.ApplyCapacities(dst); err != nil || !reflect.DeepEqual(capacitiesOf(dst), capacitiesOf(pl)) {
				t.Fatalf("%s, %s: applied %v (%v), want %v", name, form, capacitiesOf(dst), err, capacitiesOf(pl))
			}
			wider := sealedPlatform.Clone()
			wider.Links = append(wider.Links, platform.Link{U: 0, V: 1, BW: 1, MaxConnect: 9})
			want := capacitiesOf(wider)
			if err := snap.ApplyCapacities(wider); err == nil || !reflect.DeepEqual(capacitiesOf(wider), want) {
				t.Fatalf("%s, %s: capacities of 3 clusters and 2 links applied to 3 links (%v)", name, form, err)
			}
		}
	}
}

// TestSnapshotNamesItsAnswer: the committed answer travels in its own
// section, or — empty — is the newest commit record's report, so a
// snapshot that names neither is refused at both ends.
func TestSnapshotNamesItsAnswer(t *testing.T) {
	_, data := sealedSnapshot(t)
	recorded, err := DecodeSnapshot(withSection(t, data, secAnswer, nil))
	if err != nil || len(recorded.Answer) != 0 {
		t.Fatalf("an empty answer section in front of %d reports: %v", recordDepth, err)
	}
	lone, err := testSnapshot().Encode() // an answer and no record
	if err != nil {
		t.Fatal(err)
	}
	mustFail(t, withSection(t, lone, secAnswer, nil), "no answer and no record")
	snap := testSnapshot()
	snap.Answer = nil
	if _, err := snap.Encode(); err == nil {
		t.Fatal("a snapshot naming no committed answer sealed cleanly")
	}
}

// FuzzDecodeSnapshot holds the one snapshot decoder to hostile frames,
// headers, capacities, basis, weights and answer sections: it never
// panics; what it accepts is complete, survives a re-seal field for
// field, and its basis, expanded and written again from the live form,
// seals to the same bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	_, sealed := sealedSnapshot(f)
	lying := append([]byte(nil), sealed...)
	binary.BigEndian.PutUint32(lying[sectionOffsets(f, sealed)[1]:], math.MaxUint32)
	f.Add(sealed)
	f.Add([]byte(formatTwoDocument))
	f.Add(reseal(lying))
	// Format-5 basis sections a decoder must refuse: truncated, counts
	// overflowing it, a trailing word, an at-upper column at ncols, and
	// a non-ascending at-upper list; weights sections one weight short,
	// one byte over, and empty (which it accepts).
	at := sectionOffsets(f, sealed)
	f.Add(withSection(f, sealed, secBasis, sealed[at[secBasis]+4:at[secWeights]-4]))
	for _, words := range [][]uint32{
		{6, math.MaxUint32, 3, 1, 4, 1, 5, 2, 1, 4},
		{6, 5, 3, 1, 4, 1, 5, math.MaxUint32, 1, 4},
		{6, 5, 3, 1, 4, 1, 5, 2, 1, 4, 0},
		{6, 5, 3, 1, 4, 1, 5, 2, 1, 6},
		{6, 5, 3, 1, 4, 1, 5, 2, 4, 1},
	} {
		f.Add(basisWords(f, sealed, words...))
	}
	for _, n := range []int{32, 41, 0} {
		f.Add(weightsSection(f, sealed, make([]byte, n)))
	}
	// Format 6's capacities sections of an odd length and none (the codec
	// cannot know the platform, so it accepts them: a restore refuses
	// them), and an empty answer, which stands for the newest record's.
	for _, n := range []int{3, 0} {
		f.Add(withSection(f, sealed, secCapacities, make([]byte, n)))
	}
	f.Add(withSection(f, sealed, secAnswer, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Never panics; on success the invariants hold.
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if snap.Version != SnapshotVersion || !snap.complete() || snap.Checksum == "" {
			t.Fatalf("decode accepted incomplete snapshot: %+v", snap)
		}
		// What was accepted survives a re-seal: same fields, and the same
		// platform, basis and report bytes section for section.
		again, err := snap.Encode()
		if err != nil {
			t.Fatalf("re-encoding an accepted snapshot: %v", err)
		}
		back, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot: %v", err)
		}
		if !reflect.DeepEqual(back, snap) {
			t.Fatalf("snapshot changed across a re-seal:\n got %+v\nwant %+v", back, snap)
		}
		// The basis, expanded and written again as a live one, seals to the same
		// bytes — for a width a solver could have: a forged one is Basis's
		// to refuse (TestSnapshotBasisRefusesForeignWidth).
		if width(snap) > 1<<16 {
			return
		}
		cols, upper, w, err := snap.Basis(width(snap))
		if err != nil {
			t.Fatalf("expanding an accepted basis: %v", err)
		}
		live := *snap
		live.AppendBasis(nil, width(snap), cols, upper, w)
		if relive, err := live.Encode(); err != nil || !bytes.Equal(relive, again) {
			t.Fatalf("re-sealing the expanded basis: %v, %d bytes vs %d", err, len(relive), len(again))
		}
	})
}

func TestStoreSweep(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	save := func(id string) {
		snap := &SessionSnapshot{
			ID: id, Fingerprint: "fp", Epoch: 1,
			Platform: json.RawMessage(`{"hosts":[]}`), Answer: json.RawMessage(`{"epoch":1}`),
		}
		snap.AppendBasis(nil, 0, []int32{0}, nil, nil)
		data, err := snap.Encode()
		if err != nil {
			t.Fatalf("Encode(%s): %v", id, err)
		}
		if err := st.Save(id, data); err != nil {
			t.Fatalf("Save(%s): %v", id, err)
		}
	}
	save("live1")
	save("live2")
	save("retired1")
	save("retired2")
	// Orphaned temp file from a crashed writer, a snapshot file format 2
	// left behind (of a live session, even), plus a foreign file.
	for name, content := range map[string]string{
		".x.tmp-123":      "junk",
		"live1.snap.json": formatTwoDocument,
		"notes.txt":       "keep me",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if snaps, skipped, err := st.LoadAll(); err != nil || len(snaps) != 4 || skipped != 0 {
		t.Fatalf("LoadAll before sweep = %d snapshots, %d skipped, err %v; want the 4 saved and the format-2 file never read", len(snaps), skipped, err)
	}

	removed, err := st.Sweep(func(id string) bool { return strings.HasPrefix(id, "live") })
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	snaps, skipped, err := st.LoadAll()
	if err != nil || skipped != 0 {
		t.Fatalf("LoadAll: %v skipped=%d", err, skipped)
	}
	if len(snaps) != 2 {
		t.Fatalf("LoadAll after sweep = %d snapshots, want 2", len(snaps))
	}
	for _, gone := range []string{".x.tmp-123", "live1.snap.json"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s survived sweep", gone)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("foreign file must survive sweep")
	}
	// Idempotent.
	if removed, _ := st.Sweep(func(string) bool { return true }); removed != 0 {
		t.Fatalf("second sweep removed %d", removed)
	}
}

// TestSnapshotWireFormatIsPinned holds format 6 to the bytes committed
// in the fuzz corpus: a change to the frame, the header's fields or
// their order, or any section's form fails here until SnapshotVersion
// moves and the corpus is regenerated with it — so the corpus cannot
// quietly turn into inputs that are refused at the gate. The format-3,
// format-4 and format-5 files stay in the corpus as seeds that must be
// refused there.
func TestSnapshotWireFormatIsPinned(t *testing.T) {
	_, sealed := sealedSnapshot(t)
	if committed := corpusFile(t, "format6-full-record"); !bytes.Equal(committed, sealed) {
		t.Fatalf("format %d no longer encodes to the committed corpus bytes:\n got %q\nwant %q", SnapshotVersion, sealed, committed)
	}
}
