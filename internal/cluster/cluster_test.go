package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestRingDeterministicAcrossOrderings(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 0)
	b := NewRing([]string{"n3", "n1", "n2", "n1"}, 0) // permuted + duplicate
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Fatalf("members differ: %v vs %v", a.Members(), b.Members())
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("session-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner %q vs %q (ring not order-independent)", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingBalanceAndMinimalMovement(t *testing.T) {
	members := []string{"n1", "n2", "n3"}
	r3 := NewRing(members, 0)
	counts := map[string]int{}
	const N = 3000
	for i := 0; i < N; i++ {
		counts[r3.Owner(fmt.Sprintf("session-%d", i))]++
	}
	for _, m := range members {
		share := float64(counts[m]) / N
		if share < 0.15 || share > 0.55 {
			t.Fatalf("member %s owns %.0f%% of the keyspace (badly unbalanced: %v)", m, 100*share, counts)
		}
	}
	// Adding a member must move only keys onto the new member — never
	// shuffle ownership between the survivors.
	r4 := NewRing(append(members, "n4"), 0)
	moved := 0
	for i := 0; i < N; i++ {
		key := fmt.Sprintf("session-%d", i)
		was, now := r3.Owner(key), r4.Owner(key)
		if was != now {
			if now != "n4" {
				t.Fatalf("key %q moved %s -> %s on a pure addition", key, was, now)
			}
			moved++
		}
	}
	if moved == 0 || moved > N/2 {
		t.Fatalf("adding one of four members moved %d/%d keys (want roughly N/4)", moved, N)
	}
}

func TestRingEmptyAndHas(t *testing.T) {
	r := NewRing(nil, 0)
	if r.Owner("anything") != "" {
		t.Fatalf("empty ring owned a key")
	}
	r = NewRing([]string{"x"}, 8)
	if !r.Has("x") || r.Has("y") {
		t.Fatalf("Has is wrong")
	}
	if r.Owner("k") != "x" {
		t.Fatalf("single-member ring must own everything")
	}
}

func testSnapshot() *SessionSnapshot {
	s := &SessionSnapshot{
		ID:          "abc123",
		Fingerprint: "fp",
		Objective:   "maxmin",
		Heuristic:   "lprg",
		Payoffs:     []float64{1, 2, 0.5},
		Seed:        7,
		Epoch:       3,
		Platform:    json.RawMessage(`{"routers":1}`),
		Answer:      json.RawMessage(`{"value":2.5,"epoch":3}`),
	}
	s.AppendBasis(s.AppendCapacities(nil, sealedPlatform), 6, []int32{4, 2, 9}, []int32{1, 4}, []float64{1, 0.5, 2.25})
	return s
}

// width is the solver column count s's basis spans.
func width(s *SessionSnapshot) int {
	return int(binary.BigEndian.Uint32(s.basisSec))
}

// sameSnapshot reports whether a and b carry the same fields and the
// same capacities, basis and weights sections.
func sameSnapshot(a, b *SessionSnapshot) bool {
	x, y := *a, *b
	for _, s := range []*SessionSnapshot{&x, &y} {
		s.capsSec, s.basisSec, s.wtsSec = nil, nil, nil
	}
	return reflect.DeepEqual(x, y) && bytes.Equal(a.capsSec, b.capsSec) && bytes.Equal(a.basisSec, b.basisSec) &&
		bytes.Equal(a.wtsSec, b.wtsSec)
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot()
	s.RecentCommits = []CommitRecord{{ID: "c1", Report: json.RawMessage(`{"epoch":2}`)}, {ID: "c2", Report: json.RawMessage(`{"epoch":3}`)}}
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !sameSnapshot(got, s) {
		t.Fatalf("fields lost:\n got %+v\nwant %+v", got, s)
	}
	cols, upper, w, err := got.Basis(6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, []int32{4, 2, 9}) {
		t.Fatalf("basis cols %v", cols)
	}
	if !reflect.DeepEqual(upper, []int32{1, 4}) {
		t.Fatalf("basis upper %v", upper)
	}
	if !reflect.DeepEqual(w, []float64{1, 0.5, 2.25}) {
		t.Fatalf("basis weights %v", w)
	}
	// The platform, the answer and the reports are handed over as the
	// bytes that arrived — slices of the input, not copies, not
	// re-renderings.
	for name, section := range map[string][]byte{"platform": got.Platform, "answer": got.Answer, "report": got.RecentCommits[1].Report} {
		if off := bytes.Index(data, section); off < 0 || &data[off] != &section[0] {
			t.Fatalf("decoded %s does not alias the wire bytes", name)
		}
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	data, err := testSnapshot().Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	edited := func(edit func(d []byte)) []byte {
		d := append([]byte(nil), data...)
		edit(d)
		return d
	}
	cases := map[string][]byte{
		"bodyEdit":    bytes.Replace(data, []byte(`"epoch":3`), []byte(`"epoch":9`), 1),
		"truncated":   data[:len(data)-2],
		"notSnapshot": []byte("not a snapshot"),
		"noChecksum":  edited(func(d []byte) { copy(d[checksumAt:frameLen], make([]byte, frameLen-checksumAt)) }),
		"versionSkew": edited(func(d []byte) { d[versionAt+3]++ }),
		"formatTwo":   []byte(formatTwoDocument),
	}
	if bytes.Equal(cases["bodyEdit"], data) {
		t.Fatal("the body edit found nothing to edit")
	}
	for name, d := range cases {
		if _, err := DecodeSnapshot(d); err == nil {
			t.Fatalf("%s: damaged snapshot decoded cleanly", name)
		}
	}
	// Encode refuses what Decode would: no id, no platform, no basis, no
	// committed answer (nor a record whose newest report it would be).
	for name, strip := range map[string]func(*SessionSnapshot){
		"id":       func(s *SessionSnapshot) { s.ID = "" },
		"platform": func(s *SessionSnapshot) { s.Platform = nil },
		"basis":    func(s *SessionSnapshot) { s.basisSec, s.wtsSec = nil, nil },
		"answer":   func(s *SessionSnapshot) { s.Answer = nil },
	} {
		s := testSnapshot()
		strip(s)
		if _, err := s.Encode(); err == nil {
			t.Fatalf("a snapshot without %s sealed cleanly", name)
		}
	}
}

func TestStoreSaveLoadDelete(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	s := testSnapshot()
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := st.Save(s.ID, data); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := st.Load("abc123")
	if err != nil || got.Epoch != 3 {
		t.Fatalf("load: %+v err=%v", got, err)
	}
	// A corrupt file and a stray tempfile must be skipped, not fatal.
	os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("garbage"), 0o644) //nolint:errcheck
	os.WriteFile(filepath.Join(dir, ".x.tmp-1"), []byte("partial"), 0o644) //nolint:errcheck
	snaps, skipped, err := st.LoadAll()
	if err != nil {
		t.Fatalf("loadAll: %v", err)
	}
	if len(snaps) != 1 || skipped != 1 {
		t.Fatalf("loadAll: %d snaps, %d skipped (want 1, 1)", len(snaps), skipped)
	}
	if err := st.Delete("abc123"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := st.Delete("abc123"); err != nil {
		t.Fatalf("double delete must be clean: %v", err)
	}
	if _, err := st.Load("abc123"); err == nil {
		t.Fatalf("load after delete succeeded")
	}
}
