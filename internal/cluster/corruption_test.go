package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sealedSnapshot builds a realistic, sealed snapshot and its wire
// bytes for corruption tests.
func sealedSnapshot(t *testing.T) (*SessionSnapshot, []byte) {
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
	}
	snap.SetBasis([]int{3, 1, 4, 1, 5}, []bool{false, true, false, false, true, false})
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return snap, data
}

// mustFail asserts decode rejects the bytes without panicking.
func mustFail(t *testing.T, data []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: DecodeSnapshot panicked: %v", what, r)
		}
	}()
	if snap, err := DecodeSnapshot(data); err == nil {
		t.Fatalf("%s: decode accepted corrupt snapshot %+v", what, snap)
	}
}

func TestSnapshotDecodeBitFlips(t *testing.T) {
	orig, data := sealedSnapshot(t)
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot must decode: %v", err)
	}
	// Flip every bit of every byte; decode must fail closed each time:
	// an error, or — rarely — the exact original snapshot, never a
	// different one and never a panic. (The benign case is a 0x20 flip
	// in a key name: encoding/json matches keys case-insensitively, so
	// "version" and "Version" parse identically and the checksum —
	// recomputed over the canonical re-marshal — still verifies.)
	buf := make([]byte, len(data))
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			copy(buf, data)
			buf[i] ^= 1 << bit
			if bytes.Equal(buf, data) {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("bit flip %d/%d: panic: %v", i, bit, r)
					}
				}()
				snap, err := DecodeSnapshot(buf)
				if err != nil {
					return
				}
				if !reflect.DeepEqual(snap, orig) {
					t.Fatalf("bit flip %d/%d: decode accepted a DIFFERENT snapshot:\n got %+v\nwant %+v", i, bit, snap, orig)
				}
			}()
		}
	}
}

func TestSnapshotDecodeTruncation(t *testing.T) {
	_, data := sealedSnapshot(t)
	// Truncation at every boundary, including the empty prefix.
	for n := 0; n < len(data); n++ {
		mustFail(t, data[:n], "truncation")
	}
	// And trailing garbage after valid JSON.
	mustFail(t, append(append([]byte(nil), data...), "{}"...), "trailing garbage")
}

func TestSnapshotDecodeVersionSkew(t *testing.T) {
	snap, _ := sealedSnapshot(t)
	// A future version with an internally VALID checksum: the version
	// gate must reject it before (and independent of) integrity.
	cp := *snap
	cp.Version = SnapshotVersion + 1
	cp.Checksum = ""
	sum, err := cp.checksum()
	if err != nil {
		t.Fatal(err)
	}
	cp.Checksum = sum
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	_, derr := DecodeSnapshot(data)
	if derr == nil {
		t.Fatal("future-version snapshot accepted")
	}
	if !strings.Contains(derr.Error(), "version") {
		t.Fatalf("want version error, got: %v", derr)
	}
	cp.Version = 0
	mustFail(t, mustMarshal(t, &cp), "version 0")
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSnapshotDecodeFieldTampering(t *testing.T) {
	snap, _ := sealedSnapshot(t)
	// Re-marshal with single fields altered but the original checksum
	// kept: integrity must catch every one.
	tamper := []func(s *SessionSnapshot){
		func(s *SessionSnapshot) { s.Epoch++ },
		func(s *SessionSnapshot) { s.ID = "00" + s.ID[2:] },
		func(s *SessionSnapshot) { s.Platform = json.RawMessage(`{"hosts":[],"links":[]}`) },
		func(s *SessionSnapshot) { s.BasisCols[0]++ },
		func(s *SessionSnapshot) { s.BasisUpper = nil },
		func(s *SessionSnapshot) { s.Payoffs[1] = 99 },
	}
	for i, mutate := range tamper {
		cp := *snap
		cp.Payoffs = append([]float64(nil), snap.Payoffs...)
		cp.BasisCols = append([]int(nil), snap.BasisCols...)
		cp.BasisUpper = append([]int(nil), snap.BasisUpper...)
		mutate(&cp)
		mustFail(t, mustMarshal(t, &cp), "tamper case "+string(rune('a'+i)))
	}
}

func TestSnapshotDecodeHostileInputs(t *testing.T) {
	for _, in := range []string{
		"", "null", "0", "[]", `"x"`, "{", "{}", `{"version":1}`,
		`{"version":1,"checksum":"zz"}`,
		strings.Repeat("[", 64),
	} {
		mustFail(t, []byte(in), "hostile input")
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	snap := &SessionSnapshot{
		ID:          "deadbeefcafe0123456789ab",
		Fingerprint: "fp:test-platform",
		Epoch:       3,
		Platform:    json.RawMessage(`{"hosts":[]}`),
	}
	snap.SetBasis([]int{0, 1}, []bool{true, false})
	if data, err := snap.Encode(); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"id":"x","platform":{},"basisCols":[1]}`))
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Never panics; on success the invariants hold.
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if snap.Version != SnapshotVersion || snap.ID == "" ||
			len(snap.Platform) == 0 || len(snap.BasisCols) == 0 || snap.Checksum == "" {
			t.Fatalf("decode accepted incomplete snapshot: %+v", snap)
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
			Platform: json.RawMessage(`{"hosts":[]}`),
		}
		snap.SetBasis([]int{0}, nil)
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
	// Orphaned temp file from a crashed writer, plus a foreign file.
	if err := os.WriteFile(filepath.Join(dir, ".x.tmp-123"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
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
	if _, err := os.Stat(filepath.Join(dir, ".x.tmp-123")); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("foreign file must survive sweep")
	}
	// Idempotent.
	if removed, _ := st.Sweep(func(string) bool { return true }); removed != 0 {
		t.Fatalf("second sweep removed %d", removed)
	}
}
