package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/cluster"
	"repro/internal/platform"
)

// taggedSession builds a K-cluster session with a full commit-dedup
// record, the object a ring commit ships.
func taggedSession(t *testing.T, k int, seed int64) *Session {
	t.Helper()
	h, sess, base := imageFixture(t, k, seed, "lprg")
	for i := 0; i < commitDedupDepth; i++ {
		taggedCommit(t, h, base, k, fmt.Sprintf("commit-%d", i))
	}
	return sess
}

// sealBytes seals sess and returns a copy of the wire bytes.
func sealBytes(t *testing.T, sess *Session) []byte {
	t.Helper()
	_, sb, err := seal(sess)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.release()
	return bytes.Clone(sb.bytes())
}

// replicate runs one /cluster/replicate receive of data on h, sent as
// the ring sends a sealed body: without a declared length. It reports a
// refusal with t.Errorf, so any goroutine may call it.
func replicate(t testing.TB, h http.Handler, data []byte) bool {
	req := httptest.NewRequest("POST", "/cluster/replicate", struct{ io.Reader }{bytes.NewReader(data)})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("replicate: status %d: %s", rec.Code, rec.Body)
		return false
	}
	return true
}

// passiveHolder returns a node at self in a two-member ring in which a
// loopback peer owns every one of ids, so the node holds what it
// receives of them as passive replicas instead of promoting it.
// Replication 1 keeps a promotion from fanning out to that peer, which
// nothing serves.
func passiveHolder(t testing.TB, self string, ids ...string) *Node {
	t.Helper()
	for port := 1; port < 1<<10; port++ {
		peer := fmt.Sprintf("http://127.0.0.1:%d", port)
		ring := cluster.NewRing([]string{self, peer}, 0)
		if !slices.ContainsFunc(ids, func(id string) bool { return ring.Owner(id) != peer }) {
			return NewNodeWithConfig(NewServer(NewPool(8)), self, []string{peer}, nil, NodeConfig{Replication: 1})
		}
	}
	t.Fatalf("no loopback peer owns all of %v", ids)
	return nil
}

// TestReplicaReceiveAllocsIndependentOfK is the clock-free guard on the
// replica side of a ring commit: /cluster/replicate receives of one
// session's sealed snapshot, its commit record full, sent as the ring
// sends it (no declared
// length), make the same number of allocations at K=5 as at K=20 and
// no buffer that scales with the snapshot. Each is read into the pooled
// buffer the replica it displaces let go, opened with its basis
// validated in place rather than expanded, and held as received.
func TestReplicaReceiveAllocsIndependentOfK(t *testing.T) {
	type cost struct {
		allocs float64
		bytes  uint64
		size   int
	}
	measure := func(k int) cost {
		sess := taggedSession(t, k, 412)
		_, sb, err := seal(sess)
		if err != nil {
			t.Fatal(err)
		}
		defer sb.release()
		n := passiveHolder(t, "http://successor", sess.id)
		h := n.Handler()
		receive := func() {
			body := sb.body()
			req := httptest.NewRequest("POST", "/cluster/replicate", body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			body.Close()
			if rec.Code != http.StatusOK {
				t.Fatalf("replicate: status %d: %s", rec.Code, rec.Body)
			}
		}
		receive() // the first receive grows a pooled buffer to the snapshot
		receive()
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := cost{allocs: testing.AllocsPerRun(runs, receive), size: len(sb.bytes())}
		runtime.ReadMemStats(&after)
		c.bytes = (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if held := n.getReplica(sess.id); held == nil || !bytes.Equal(held.sb.bytes(), sb.bytes()) {
			t.Fatal("the successor does not hold the bytes it was sent")
		}
		return c
	}
	small, big := measure(5), measure(20)
	t.Logf("replica receive: K=5 %.0f allocs, %d bytes per %d-byte snapshot; K=20 %.0f allocs, %d bytes per %d-byte snapshot",
		small.allocs, small.bytes, small.size, big.allocs, big.bytes, big.size)
	if big.size-small.size < 16<<10 {
		t.Fatalf("snapshots are %d and %d bytes: too close to tell a snapshot-sized buffer from noise", big.size, small.size)
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop a quarter of what is put back
	}
	if big.allocs != small.allocs {
		t.Fatalf("a replica receive allocates %.0f times at K=20 and %.0f at K=5: something per column, cell or byte is back", big.allocs, small.allocs)
	}
	if big.bytes > small.bytes+1<<10 {
		t.Fatalf("a replica receive allocates %d bytes on a %d-byte snapshot and %d on a %d-byte one: something proportional to the snapshot is back",
			big.bytes, big.size, small.bytes, small.size)
	}
}

// TestReplicaBytesOutlivePromotion holds a held replica's pooled bytes
// under a promotion that reads them outside repMu: while the promotion
// rebuilds from the replica it took, newer snapshots of the session
// displace that replica and other receives and seals churn the buffer
// pool. The promotion's own reference keeps the bytes from being
// recycled, so the live session it installs carries the commit records
// of the snapshot it took, byte for byte, and the taken bytes are
// released once, by their last holder. Run with -race: a buffer
// recycled early is a reported race as well as a mismatch.
func TestReplicaBytesOutlivePromotion(t *testing.T) {
	sess := taggedSession(t, 6, 413)
	other := taggedSession(t, 9, 414)
	taken := sealBytes(t, sess)
	wants := map[int]*cluster.SessionSnapshot{}
	var newer [][]byte
	for i := 0; i < 4; i++ {
		data := taken
		if i > 0 {
			if _, err := sess.Epoch(&EpochRequest{SpeedFactor: driftFactors(6, 0.95)}); err != nil {
				t.Fatal(err)
			}
			data = sealBytes(t, sess)
			newer = append(newer, data)
		}
		want, err := cluster.DecodeSnapshot(bytes.Clone(data))
		if err != nil {
			t.Fatal(err)
		}
		wants[want.Epoch] = want
	}
	otherData := sealBytes(t, other)

	for round := 0; round < 20; round++ {
		n := passiveHolder(t, "http://successor", sess.id, other.id)
		h := n.Handler()
		if !replicate(t, h, taken) {
			t.FailNow()
		}
		held := n.getReplica(sess.id)
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.promoteIfReplica(sess.id)
		}()
		// Displace and churn until the promotion is over.
		for i := 0; ; i++ {
			select {
			case <-done:
			default:
				sb := sealedCopy(newer[i%len(newer)])
				snap, err := cluster.DecodeSnapshot(sb.bytes())
				if err != nil {
					t.Fatal(err)
				}
				n.putReplica(&replica{sb: sb, snap: snap})
				if !replicate(t, h, otherData) {
					t.FailNow()
				}
				_, ob, err := seal(other)
				if err != nil {
					t.Fatal(err)
				}
				ob.release()
				continue
			}
			break
		}

		live := n.srv.Pool().Get(sess.id)
		if live == nil || n.promotions.Value() != 1 {
			t.Fatalf("round %d: nothing promoted (promotions %d, errors %d)", round, n.promotions.Value(), n.replicaErrors.Value())
		}
		want := wants[live.Info().Epoch]
		if want == nil {
			t.Fatalf("round %d: promoted epoch %d, which no replica carried", round, live.Info().Epoch)
		}
		records := live.state.Load().records
		if len(records) != len(want.RecentCommits) {
			t.Fatalf("round %d: %d records installed, want %d", round, len(records), len(want.RecentCommits))
		}
		for i, rec := range records {
			if rec.id != want.RecentCommits[i].ID || !bytes.Equal(rec.wire, want.RecentCommits[i].Report) {
				t.Fatalf("round %d: record %d installed as %s %q, want %s %q", round, i, rec.id, rec.wire, want.RecentCommits[i].ID, want.RecentCommits[i].Report)
			}
		}
		if refs := held.sb.refs.Load(); refs != 0 {
			t.Fatalf("round %d: the taken replica's bytes keep %d references after the promotion and their displacement", round, refs)
		}
	}
}

func mustOpen(t testing.TB, data []byte) *cluster.SessionSnapshot {
	t.Helper()
	snap, err := cluster.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// Sections of a sealed snapshot's body, in order: the header, the
// creation platform, the capacities, the basis, the weights, the
// committed answer, then the commit reports.
const (
	platformSection   = 1
	capacitiesSection = 2
	basisSection      = 3
)

// forgeSection is data resealed with its section i replaced by what
// edit returns for a copy of it, behind a valid checksum. The frame is
// the magic line, the version and the hex sha256 of the body; the body's
// sections each follow a uint32 BE length.
func forgeSection(data []byte, i int, edit func(sec []byte) []byte) []byte {
	const checksumAt = len("schedd-snapshot\n") + 4
	const frameLen = checksumAt + 2*sha256.Size
	off := frameLen
	for range i {
		off += 4 + int(binary.BigEndian.Uint32(data[off:]))
	}
	end := off + 4 + int(binary.BigEndian.Uint32(data[off:]))
	sec := edit(bytes.Clone(data[off+4 : end]))
	out := append(binary.BigEndian.AppendUint32(bytes.Clone(data[:off]), uint32(len(sec))), sec...)
	out = append(out, data[end:]...)
	sum := sha256.Sum256(out[frameLen:])
	hex.Encode(out[checksumAt:frameLen], sum[:])
	return out
}

// forgeBasisWidth is data resealed with its basis section claiming a
// basis over ncols solver columns (a basis section's first word is its
// column count), behind a valid checksum.
func forgeBasisWidth(data []byte, ncols uint32) []byte {
	return forgeSection(data, basisSection, func(sec []byte) []byte {
		binary.BigEndian.PutUint32(sec, ncols)
		return sec
	})
}

// TestForgedBasisWidthIsRefused: a snapshot forged behind a valid
// checksum to claim a basis over 4 Gi solver columns opens (the codec
// cannot know the solver's width) but is refused at restore against the
// rebuilt model's column count, before anything that size is
// allocated; a replica holding it fails its promotion closed.
func TestForgedBasisWidthIsRefused(t *testing.T) {
	sess := taggedSession(t, 6, 415)
	forged := forgeBasisWidth(sealBytes(t, sess), math.MaxUint32)
	opened := mustOpen(t, forged)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := RestoreSession(opened)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("restoring a basis over %d columns returned %v, want a refusal", uint32(math.MaxUint32), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("refusing a 4 Gi-column basis allocated %d bytes", grew)
	}

	n := passiveHolder(t, "http://successor", sess.id)
	if !replicate(t, n.Handler(), forged) {
		t.FailNow()
	}
	n.promoteIfReplica(sess.id)
	if n.srv.Pool().Get(sess.id) != nil || n.getReplica(sess.id) != nil || n.replicaErrors.Value() != 1 {
		t.Fatalf("the forged replica was not failed closed (errors %d)", n.replicaErrors.Value())
	}
}

// driftedSession is a K-cluster session after three untagged commits
// that drift every speed, gateway and link budget by a factor of its own.
func driftedSession(t *testing.T, k int, seed int64) *Session {
	t.Helper()
	_, sess, _ := imageFixture(t, k, seed, "lprg")
	rng := rand.New(rand.NewSource(seed))
	factors := func(n int) []float64 {
		f := make([]float64, n)
		for i := range f {
			f[i] = 0.7 + 0.6*rng.Float64()
		}
		return f
	}
	if len(sess.state.Load().pr.Platform.Links) == 0 {
		t.Fatal("the platform has no links to drift")
	}
	for range 3 {
		if _, err := sess.Epoch(&EpochRequest{
			SpeedFactor: factors(k), GatewayFactor: factors(k), LinkFactor: factors(len(sess.state.Load().pr.Platform.Links)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

// TestRestoredPlatformIsLive: a snapshot carries the creation platform
// and the committed capacities over it, and the session restored from
// its sealed bytes holds the live session's drifted platform — the same
// fingerprint and the same description — under the creation identity.
func TestRestoredPlatformIsLive(t *testing.T) {
	live := driftedSession(t, 8, 418)
	restored, _, warm, err := RestoreSession(mustOpen(t, sealBytes(t, live)))
	if err != nil || !warm {
		t.Fatalf("restore: warm %v, %v", warm, err)
	}
	created, err := platform.Decode(live.created)
	if err != nil {
		t.Fatal(err)
	}
	if created.Fingerprint() == live.state.Load().pr.Platform.Fingerprint() {
		t.Fatal("the commits drifted nothing")
	}
	if got, want := restored.state.Load().pr.Platform.Fingerprint(), live.state.Load().pr.Platform.Fingerprint(); got != want {
		t.Fatalf("restored platform fingerprint %s, live %s", got, want)
	}
	got, err := restored.PlatformJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.PlatformJSON()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored platform differs from the live one (%v)\n%s\nvs\n%s", err, got, want)
	}
	if restored.fingerprint != created.Fingerprint() || restored.id != live.id || !bytes.Equal(restored.created, live.created) {
		t.Fatal("the restored session does not keep the creation identity and platform")
	}
}

// TestRestoreRefusesForgedCapacities: a snapshot forged behind a valid
// checksum opens (the codec cannot know a platform), but the restore
// refuses it when the capacities section does not fit the creation
// platform's clusters and links, when it carries a capacity an uploaded
// platform may not have (a NaN or negative speed, a budget above
// platform.MaxConnectCeiling), and when the creation platform does not
// hash to the snapshot's fingerprint; a replica holding one fails its
// promotion closed.
func TestRestoreRefusesForgedCapacities(t *testing.T) {
	sess := driftedSession(t, 6, 419)
	data := sealBytes(t, sess)
	if _, _, _, err := RestoreSession(mustOpen(t, data)); err != nil {
		t.Fatalf("the honest snapshot must restore: %v", err)
	}
	K := sess.state.Load().pr.Platform.K()
	caps := func(edit func(sec []byte) []byte) []byte { return forgeSection(data, capacitiesSection, edit) }
	putFloat := func(at int, v float64) []byte {
		return caps(func(sec []byte) []byte {
			binary.BigEndian.PutUint64(sec[at:], math.Float64bits(v))
			return sec
		})
	}
	forged := map[string][]byte{
		"a section a byte short":  caps(func(sec []byte) []byte { return sec[:len(sec)-1] }),
		"a section a budget over": caps(func(sec []byte) []byte { return binary.BigEndian.AppendUint32(sec, 5) }),
		"an empty section":        caps(func([]byte) []byte { return nil }),
		"a NaN speed":             putFloat(0, math.NaN()),
		"a negative speed":        putFloat(16*(K-1), -1),
		"an infinite gateway":     putFloat(8, math.Inf(1)),
		"a budget above the ceiling": caps(func(sec []byte) []byte {
			binary.BigEndian.PutUint32(sec[16*K:], platform.MaxConnectCeiling+1)
			return sec
		}),
		"another creation platform": forgeSection(data, platformSection, func(sec []byte) []byte {
			pl, err := platform.Decode(sec)
			if err != nil {
				t.Fatal(err)
			}
			pl.Links[0].BW *= 2
			out, err := json.Marshal(pl)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}),
	}
	for name, bad := range forged {
		if _, _, _, err := RestoreSession(mustOpen(t, bad)); err == nil {
			t.Fatalf("%s: restored", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}

	n := passiveHolder(t, "http://successor", sess.id)
	if !replicate(t, n.Handler(), forged["a NaN speed"]) {
		t.FailNow()
	}
	n.promoteIfReplica(sess.id)
	if n.srv.Pool().Get(sess.id) != nil || n.getReplica(sess.id) != nil || n.replicaErrors.Value() != 1 {
		t.Fatalf("the forged replica was not failed closed (errors %d)", n.replicaErrors.Value())
	}
}

// TestReplicateOutcomeTable holds /cluster/replicate, the one way a
// snapshot arrives, to the receipt table of DESIGN.md "Cluster control
// plane": an epoch-2 snapshot of one session, sent to a receiver that
// owns the session and to one that does not, over no copy, a held
// replica or a live session below or above it (live equal too), from a
// stale incarnation, as corrupt bytes, and forged with a basis width no
// rebuild accepts. Each row checks the status, the replica and the live
// session left behind (their epochs, -1 for none), and the promotion
// and error counts. An owner promotes before it acks, so what it acks
// is live; an owner never lets an equal-or-newer live session be
// clobbered.
func TestReplicateOutcomeTable(t *testing.T) {
	_, sess, _ := imageFixture(t, 6, 416, "lprg")
	data := map[int][]byte{}
	for e := 1; e <= 3; e++ {
		if _, err := sess.Epoch(&EpochRequest{SpeedFactor: driftFactors(6, 0.95)}); err != nil {
			t.Fatal(err)
		}
		data[e] = sealBytes(t, sess)
	}
	forged := forgeBasisWidth(data[2], math.MaxUint32)
	corrupt := bytes.Clone(data[2])
	corrupt[len(corrupt)/2] ^= 0x40

	const peer, inc = "http://peer", 7
	held := func(e int) func(*Node) {
		return func(n *Node) {
			sb := sealedCopy(data[e])
			n.putReplica(&replica{sb: sb, snap: mustOpen(t, sb.bytes())})
		}
	}
	live := func(e int) func(*Node) {
		return func(n *Node) {
			s, _, _, err := RestoreSession(mustOpen(t, bytes.Clone(data[e])))
			if err != nil {
				t.Fatal(err)
			}
			n.srv.Pool().Install(s)
		}
	}
	knownLater := func(n *Node) { n.membership.ObserveAck(peer, inc+1, time.Now()) }

	type outcome struct {
		status, held, live   int
		promotions, failures uint64
	}
	rows := []struct {
		name  string
		owner bool
		pre   func(*Node)
		body  []byte
		want  outcome
	}{
		{"owner/no copy", true, nil, data[2], outcome{200, -1, 2, 1, 0}},
		{"owner/held below", true, held(1), data[2], outcome{200, -1, 2, 1, 0}},
		{"owner/held above", true, held(3), data[2], outcome{409, 3, -1, 0, 0}},
		{"owner/live below", true, live(1), data[2], outcome{200, -1, 2, 1, 0}},
		{"owner/live equal", true, live(2), data[2], outcome{200, -1, 2, 0, 0}},
		{"owner/live above", true, live(3), data[2], outcome{409, -1, 3, 0, 0}},
		{"owner/stale incarnation", true, knownLater, data[2], outcome{409, -1, -1, 0, 0}},
		{"owner/corrupt", true, nil, corrupt, outcome{400, -1, -1, 0, 0}},
		{"owner/forged basis width", true, nil, forged, outcome{400, -1, -1, 0, 1}},
		{"holder/no copy", false, nil, data[2], outcome{200, 2, -1, 0, 0}},
		{"holder/held below", false, held(1), data[2], outcome{200, 2, -1, 0, 0}},
		{"holder/held above", false, held(3), data[2], outcome{409, 3, -1, 0, 0}},
		{"holder/live below", false, live(1), data[2], outcome{200, 2, -1, 0, 0}},
		{"holder/live equal", false, live(2), data[2], outcome{200, 2, 2, 0, 0}},
		{"holder/live above", false, live(3), data[2], outcome{409, -1, 3, 0, 0}},
		{"holder/stale incarnation", false, knownLater, data[2], outcome{409, -1, -1, 0, 0}},
		{"holder/corrupt", false, nil, corrupt, outcome{400, -1, -1, 0, 0}},
		{"holder/forged basis width", false, nil, forged, outcome{200, 2, -1, 0, 0}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			n := passiveHolder(t, "http://self", sess.id)
			if row.owner {
				n = NewNodeWithConfig(NewServer(NewPool(8)), "http://self", nil, nil, NodeConfig{})
			}
			if row.pre != nil {
				row.pre(n)
			}
			req := httptest.NewRequest("POST", "/cluster/replicate", bytes.NewReader(row.body))
			req.Header.Set(fromHeader, peer)
			req.Header.Set(incarnationHeader, fmt.Sprint(inc))
			rec := httptest.NewRecorder()
			n.Handler().ServeHTTP(rec, req)
			got := outcome{rec.Code, -1, -1, n.promotions.Value(), n.replicaErrors.Value()}
			if r := n.getReplica(sess.id); r != nil {
				got.held = r.snap.Epoch
			}
			if s := n.srv.Pool().Get(sess.id); s != nil {
				got.live = s.Info().Epoch
			}
			if got != row.want {
				t.Fatalf("got %+v, want %+v (body %s)", got, row.want, rec.Body)
			}
		})
	}
}

// TestReadBoundedUndeclaredLength: a body of undeclared length is read
// into dst's spare capacity and grows it only when it is full. One that
// exactly fills cap(dst) allocates nothing — bytes.Buffer's 512-byte
// read probe grew such a buffer — and the bytes are right whatever the
// reader's chunking, including a reader that answers a zero-length read
// with 0, nil.
func TestReadBoundedUndeclaredLength(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	dst := make([]byte, 0, len(body))
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		got, err := readBounded(dst, r, -1)
		if err != nil || len(got) != len(body) || &got[0] != &dst[:1][0] {
			t.Fatalf("read %d bytes (%v), not the %d-byte body into dst", len(got), err, len(body))
		}
	})
	if allocs != 0 {
		t.Fatalf("a body that exactly fills dst allocates %.0f times, want 0", allocs)
	}
	for name, tc := range map[string]struct {
		dst  []byte
		size int
		wrap func(io.Reader) io.Reader
	}{
		"empty into nil":         {nil, 0, nil},
		"into nil":               {nil, 3000, nil},
		"one byte over":          {make([]byte, 0, 4096), 4097, nil},
		"under":                  {make([]byte, 0, 4096), 100, nil},
		"one byte at a time":     {make([]byte, 0, 64), 1000, iotest.OneByteReader},
		"data with EOF":          {make([]byte, 0, 4096), 4096, iotest.DataErrReader},
		"half reads, exact fill": {make([]byte, 0, 4096), 4096, iotest.HalfReader},
	} {
		want := bytes.Repeat([]byte("x"), tc.size)
		var rd io.Reader = bytes.NewReader(want)
		if tc.wrap != nil {
			rd = tc.wrap(rd)
		}
		got, err := readBounded(tc.dst, rd, -1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d bytes (%v), want %d", name, len(got), err, tc.size)
		}
	}
	if _, err := readBounded(nil, iotest.ErrReader(io.ErrUnexpectedEOF), -1); err != io.ErrUnexpectedEOF {
		t.Fatalf("a failing reader's error was %v", err)
	}
}
