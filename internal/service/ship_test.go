package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/platform"
)

// lockedBuffer is a log sink safe for the handler goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Buffer.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Buffer.String()
}

// sealedCopy holds a copy of data in a pooled buffer with one
// reference, as a received replica's bytes are held.
func sealedCopy(data []byte) *sealed {
	sb := newSealed()
	*sb.buf = append(*sb.buf, data...)
	return sb
}

// TestStoreAndReplicaGetTheSameBytes pins the one seal per commit: on a
// 3-node ring with stores, the owner's snapshot file and the replica
// its successor holds for the same commit are byte-identical — both are
// the output of the one SessionSnapshot.Encode the commit ran.
func TestStoreAndReplicaGetTheSameBytes(t *testing.T) {
	nodes, servers := startRing(t, 3, true)
	client := servers[0].Client()
	created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 401))})
	doJSON(t, client, "POST", servers[0].URL+"/sessions/"+created.ID+"/epoch",
		&EpochRequest{SpeedFactor: driftFactors(created.K, 0.9)}, nil, http.StatusOK)

	owner, successor := ringOwnerOf(t, nodes, created.ID)
	stored, err := os.ReadFile(filepath.Join(nodes[owner].store.Dir(), created.ID+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	held := nodes[successor].getReplica(created.ID)
	if held == nil || held.snap.Epoch != 1 {
		t.Fatalf("successor holds %+v, want the epoch-1 replica", held)
	}
	if !bytes.Equal(stored, held.sb.bytes()) {
		t.Fatalf("store file (%d bytes) and held replica (%d bytes) of one commit differ", len(stored), len(held.sb.bytes()))
	}
	if got := nodes[owner].snapshotBytes.Value(); got < uint64(len(stored)) {
		t.Fatalf("snapshotBytes %d does not cover the %d-byte snapshot just saved", got, len(stored))
	}
}

// TestUnwritableStoreIsLoudNotFatal breaks the owner's snapshot
// directory (replaced by a regular file — chmod does not bind when
// tests run as root) and commits: the epoch still answers 200, the
// replica is still sent, snapshotBytes does not advance, and exactly
// one warning names the session. Before, the failure was dropped on
// the floor and a full disk silently stopped persisting.
func TestUnwritableStoreIsLoudNotFatal(t *testing.T) {
	nodes, servers := startRing(t, 2, true)
	client := servers[0].Client()
	created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 402))})
	owner, _ := ringOwnerOf(t, nodes, created.ID)
	n := nodes[owner]

	var logged lockedBuffer
	n.srv.SetLogger(slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelWarn})))
	dir := n.store.Dir()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	bytesBefore, sentBefore := n.snapshotBytes.Value(), n.replicasSent.Value()

	doJSON(t, client, "POST", servers[0].URL+"/sessions/"+created.ID+"/epoch",
		&EpochRequest{SpeedFactor: driftFactors(created.K, 0.9)}, nil, http.StatusOK)

	if got := n.replicasSent.Value(); got != sentBefore+1 || n.replicaErrors.Value() != 0 {
		t.Fatalf("replicas sent %d → %d with %d errors, want one more and none", sentBefore, got, n.replicaErrors.Value())
	}
	if got := n.snapshotBytes.Value(); got != bytesBefore {
		t.Fatalf("snapshotBytes advanced %d → %d on a save that failed", bytesBefore, got)
	}
	lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "level=WARN") ||
		!strings.Contains(lines[0], "session="+created.ID) || !strings.Contains(lines[0], "err=") {
		t.Fatalf("want exactly one warning naming the session and the error, got:\n%s", logged.String())
	}
}

// TestFanoutRecordLeavesWithItsSession: a DELETE drops the owner's
// replication-lag record along with the session, so the map does not
// grow by one entry per session ever served.
func TestFanoutRecordLeavesWithItsSession(t *testing.T) {
	nodes, servers := startRing(t, 2, false)
	client := servers[0].Client()
	created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 403))})
	owner, _ := ringOwnerOf(t, nodes, created.ID)
	if _, ok := nodes[owner].lastFanout.Load(created.ID); !ok {
		t.Fatal("the create's fan-out left no record on the owner")
	}
	doJSON(t, client, "DELETE", servers[0].URL+"/sessions/"+created.ID, nil, nil, http.StatusOK)
	for i, n := range nodes {
		if _, ok := n.lastFanout.Load(created.ID); ok {
			t.Fatalf("node %d keeps a fan-out record for the deleted session", i)
		}
	}
}

// TestOversizedPeerResponseIsAnError pins what the one outbound call
// primitive bounds: a seed answering a join's /cluster/health probe
// with more than maxBodyBytes is an error, not an unbounded decode.
func TestOversizedPeerResponseIsAnError(t *testing.T) {
	seed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"members":["http://a","`))      //nolint:errcheck
		w.Write(bytes.Repeat([]byte("x"), maxBodyBytes)) //nolint:errcheck
		w.Write([]byte(`"]}`))                           //nolint:errcheck
	}))
	defer seed.Close()
	n := NewNodeWithConfig(NewServer(NewPool(1)), "http://self", nil, nil, NodeConfig{})
	err := n.Join(seed.URL)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Join against an oversized answer returned %v, want a bounded-read error", err)
	}
	if got := n.Members(); len(got) != 1 {
		t.Fatalf("the oversized member list was adopted: %d members", len(got))
	}
}

// TestOversizedRequestIsRefusedBeforeForwarding is the inbound twin:
// an epoch body over maxBodyBytes entering through a non-owner is
// refused there with the 400 the local path gives it — whether its
// length was declared or not — and never forwarded. Before, the router
// buffered the first maxBodyBytes+1 bytes and sent those to the owner.
func TestOversizedRequestIsRefusedBeforeForwarding(t *testing.T) {
	nodes, servers := startRing(t, 2, false)
	client := servers[0].Client()
	created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 404))})
	owner, other := ringOwnerOf(t, nodes, created.ID)
	huge := append([]byte(`{"speedFactor":[1`), bytes.Repeat([]byte(",1"), maxBodyBytes/2)...)
	huge = append(huge, "]}"...)
	if len(huge) <= maxBodyBytes {
		t.Fatalf("test body is only %d bytes", len(huge))
	}
	forwardedBefore := nodes[other].forwarded.Value()
	for name, body := range map[string]io.Reader{
		"declared length":   bytes.NewReader(huge),
		"undeclared length": struct{ io.Reader }{bytes.NewReader(huge)}, // no Len: sent chunked
	} {
		resp, err := client.Post(servers[other].URL+"/sessions/"+created.ID+"/epoch", "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: oversize epoch body answered %d, want 400", name, resp.StatusCode)
		}
	}
	if got := nodes[other].forwarded.Value(); got != forwardedBefore {
		t.Fatalf("the non-owner forwarded %d oversize bodies", got-forwardedBefore)
	}
	if got := nodes[owner].srv.Pool().Get(created.ID).Info().Epoch; got != 0 {
		t.Fatalf("an oversize commit reached the owner: epoch %d", got)
	}
	// The bound is a bound, not a ban on epoch commits through this node.
	doJSON(t, client, "POST", servers[other].URL+"/sessions/"+created.ID+"/epoch",
		&EpochRequest{SpeedFactor: driftFactors(created.K, 0.9)}, nil, http.StatusOK)
	if got := nodes[other].forwarded.Value(); got != forwardedBefore+1 {
		t.Fatalf("a well-sized commit through the non-owner moved forwarded by %d, want 1", got-forwardedBefore)
	}
}

// sealAllocs counts the allocations of one seal of sess into a warmed
// pooled buffer.
func sealAllocs(t *testing.T, sess *Session) float64 {
	t.Helper()
	return testing.AllocsPerRun(50, func() {
		_, sb, err := seal(sess)
		if err != nil {
			t.Fatal(err)
		}
		sb.release()
	})
}

// taggedCommit posts one tagged epoch commit that leaves the platform
// and the basis as they are, and returns its body.
func taggedCommit(t testing.TB, h http.Handler, base string, k int, id string) []byte {
	t.Helper()
	still := fmt.Sprintf(`{"speedFactor":[1%s]}`, strings.Repeat(",1", k-1))
	req := httptest.NewRequest("POST", base+"/epoch", strings.NewReader(still))
	req.Header.Set(commitIDHeader, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("commit %s: status %d: %s", id, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestSealCostIndependentOfRecordDepth is the clock-free guard on the
// commit path: a commit's report is encoded once, when it is recorded,
// and every later seal appends those bytes into a pooled buffer,
// writing the basis from the live one in place, as binary words. So (a)
// sealing allocates the same with one commit on record as with all eight
// (a full record) —
// format 2 re-marshalled every recorded report on every seal, ten
// allocations more at depth 8; (b) sealing a full record allocates the
// same at K=5 as at K=20 — nothing per basis column, per cell or per
// byte of the snapshot; (c) snapshots share the record's bytes instead
// of copying them; and (d) a replica promoted from those bytes answers
// a retry with the original body and passes the bytes on as received.
func TestSealCostIndependentOfRecordDepth(t *testing.T) {
	const k = 8
	h, sess, base := imageFixture(t, k, 95, "lprg")
	commit := func(h http.Handler, id string) []byte { return taggedCommit(t, h, base, k, id) }
	bodies := map[string][]byte{"commit-0": commit(h, "commit-0")}
	shallow := sealAllocs(t, sess)
	for i := 1; i < commitDedupDepth; i++ {
		id := fmt.Sprintf("commit-%d", i)
		bodies[id] = commit(h, id)
	}
	deep := sealAllocs(t, sess)
	t.Logf("seal: %.0f allocs at record depth 1, %.0f at depth %d", shallow, deep, commitDedupDepth)

	perK := map[int]float64{}
	for _, kk := range []int{5, 20} {
		hk, sk, basek := imageFixture(t, kk, 96, "lprg")
		for i := 0; i < commitDedupDepth; i++ {
			taggedCommit(t, hk, basek, kk, fmt.Sprintf("commit-%d", i))
		}
		perK[kk] = sealAllocs(t, sk)
	}
	t.Logf("seal of a full record: %.0f allocs at K=5, %.0f at K=20", perK[5], perK[20])
	// Not compared under the race detector: it makes sync.Pool drop a
	// quarter of what is put back, so the pooled buffers and
	// encoding/json's pooled encoder state turn up as allocations at
	// random. (c) and (d) hold there too.
	if !raceEnabled && deep > shallow+2 {
		t.Fatalf("seal allocates %.0f times at record depth %d and %.0f at depth 1: something per record is back", deep, commitDedupDepth, shallow)
	}
	if !raceEnabled && perK[20] != perK[5] {
		t.Fatalf("seal allocates %.0f times at K=20 and %.0f at K=5: something per basis column or per byte is back", perK[20], perK[5])
	}

	first, sb, err := seal(sess)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(sb.bytes())
	sb.release()
	second, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.RecentCommits) != commitDedupDepth || len(second.RecentCommits) != commitDedupDepth {
		t.Fatalf("snapshots carry %d and %d records, want %d", len(first.RecentCommits), len(second.RecentCommits), commitDedupDepth)
	}
	for i, rec := range sess.state.Load().records {
		if &first.RecentCommits[i].Report[0] != &rec.wire[0] || &second.RecentCommits[i].Report[0] != &rec.wire[0] {
			t.Fatalf("record %d: two snapshots do not share the record's one encoding", i)
		}
	}

	// Promotion: the session's new owner receives the sealed bytes and
	// promotes them on receipt.
	n := NewNodeWithConfig(NewServer(NewPool(4)), "http://successor", nil, nil, NodeConfig{})
	nh := n.Handler()
	rec := httptest.NewRecorder()
	nh.ServeHTTP(rec, httptest.NewRequest("POST", "/cluster/replicate", bytes.NewReader(data)))
	if rec.Code != http.StatusOK {
		t.Fatalf("replicate: status %d: %s", rec.Code, rec.Body)
	}
	promoted := n.srv.Pool().Get(sess.id)
	if promoted == nil || n.promotions.Value() != 1 {
		t.Fatalf("replica was not promoted (promotions %d)", n.promotions.Value())
	}
	kept := promoted.state.Load().records
	for id, original := range bodies {
		if retry := commit(nh, id); !bytes.Equal(retry, original) {
			t.Fatalf("retry of %s on the promoted replica differs from the owner's original answer:\n%s\nvs\n%s", id, retry, original)
		}
	}
	if got := promoted.Info().Epoch; got != commitDedupDepth {
		t.Fatalf("retries moved the promoted session to epoch %d, want %d", got, commitDedupDepth)
	}
	next, err := promoted.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range next.RecentCommits {
		sent, got := first.RecentCommits[i], kept[i]
		if rec.ID != sent.ID || !bytes.Equal(rec.Report, sent.Report) || &rec.Report[0] != &got.wire[0] {
			t.Fatalf("record %d: the promoted session's snapshot does not carry the report bytes it received", i)
		}
	}
}

// TestSnapshotEncodesOffTheLock holds Session.Snapshot's lock hold to
// reading which state is committed: while the committed answer of an
// untagged state is encoded the session mutex is free (checked by
// ownership, not by a clock), a query and an epoch commit run to
// completion on the session, and the snapshot still carries the state
// it read — the pre-commit epoch, answer and capacities, and the basis
// that went with them.
func TestSnapshotEncodesOffTheLock(t *testing.T) {
	const k = 6
	_, sess, _ := imageFixture(t, k, 97, "lprg")
	c := sess.state.Load()
	pl, basis, epoch, committed := c.pr.Platform, c.basis, c.epoch, &c.answer.rep
	wantAnswer, err := json.Marshal(committed)
	if err != nil {
		t.Fatal(err)
	}

	encoded := 0
	orig := encodeAnswer
	t.Cleanup(func() { encodeAnswer = orig })
	encodeAnswer = func(dst []byte, rep *SolveReport) ([]byte, bool) {
		if rep == committed {
			encoded++
			if !sess.mu.TryLock() {
				t.Fatal("the committed answer is encoded under the session lock")
			}
			sess.mu.Unlock()
			if _, err := sess.Query(); err != nil {
				t.Fatalf("query during the encode: %v", err)
			}
			if _, err := sess.Epoch(&EpochRequest{SpeedFactor: driftFactors(k, 0.9)}); err != nil {
				t.Fatalf("commit during the encode: %v", err)
			}
		}
		return orig(dst, rep)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if encoded != 1 {
		t.Fatalf("the committed answer was encoded %d times, want 1", encoded)
	}
	if snap.Epoch != epoch || !bytes.Equal(snap.Answer, wantAnswer) {
		t.Fatalf("snapshot carries epoch %d and an answer of %d bytes, want the pre-commit epoch %d and its %d bytes",
			snap.Epoch, len(snap.Answer), epoch, len(wantAnswer))
	}
	carried, err := platform.Decode(snap.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.ApplyCapacities(carried); err != nil || carried.Fingerprint() != pl.Fingerprint() {
		t.Fatalf("the snapshot does not carry the pre-commit capacities (%v)", err)
	}
	// The snapshot writes its basis sections off the lock too, after the
	// commit: from the basis committed with its platform, not a later
	// commit's.
	cols, upper, weights := basis.View()
	gotCols, gotUpper, gotWeights, err := snap.Basis(sess.model.SolverCols())
	if err != nil || !slices.Equal(gotCols, cols) || !slices.Equal(gotUpper, upper) || !slices.Equal(gotWeights, weights) {
		t.Fatalf("the snapshot does not carry the basis committed with its platform (%v)", err)
	}
	_, _, laterWeights := sess.state.Load().basis.View()
	if slices.Equal(laterWeights, weights) {
		t.Fatal("the commit during the encode left the basis's weights as they were: the check above cannot tell the two bases apart")
	}
	if sess.Info().Epoch != epoch+1 {
		t.Fatalf("the commit during the encode left epoch %d, want %d", sess.Info().Epoch, epoch+1)
	}
}

// TestForwardedReadAllocsIndependentOfK is the clock-free guard on the
// forward hop: a cached /query entering a two-node ring at the member
// that does not own the session, forwarded to the owner and relayed
// back, makes the same number of allocations at K=5 as at K=20 — client,
// both nodes and the loopback transport counted — and no buffer that
// scales with the body: the owner's answer is read into a pooled buffer
// and released once relayed.
func TestForwardedReadAllocsIndependentOfK(t *testing.T) {
	type cost struct {
		allocs float64
		bytes  uint64
		body   int
	}
	measure := func(k int) cost {
		nodes, servers := startRing(t, 2, false)
		client := servers[0].Client()
		created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, k, 410))})
		_, other := ringOwnerOf(t, nodes, created.ID)
		url := servers[other].URL + "/sessions/" + created.ID + "/query"
		var c cost
		sink := bytes.NewBuffer(nil)
		query := func() {
			resp, err := client.Post(url, "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			sink.Reset()
			sink.ReadFrom(resp.Body) //nolint:errcheck // the length is checked
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || (c.body != 0 && sink.Len() != c.body) {
				t.Fatalf("forwarded query: status %d, %d bytes", resp.StatusCode, sink.Len())
			}
			c.body = sink.Len()
		}
		query() // the first hit builds the owner's wire image
		query()
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.allocs = testing.AllocsPerRun(runs, query)
		runtime.ReadMemStats(&after)
		c.bytes = (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if got := nodes[other].forwarded.Value(); got < runs {
			t.Fatalf("the non-owner forwarded %d of %d queries", got, runs)
		}
		return c
	}
	small, big := measure(5), measure(20)
	t.Logf("forwarded cached query: K=5 %.0f allocs, %d bytes per %d-byte body; K=20 %.0f allocs, %d bytes per %d-byte body",
		small.allocs, small.bytes, small.body, big.allocs, big.bytes, big.body)
	if big.body-small.body < 6<<10 {
		t.Fatalf("bodies are %d and %d bytes: too close to tell a body-sized buffer from noise", big.body, small.body)
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop a quarter of what is put back
	}
	if big.allocs != small.allocs {
		t.Fatalf("a forwarded cached query allocates %.0f times at K=20 and %.0f at K=5: something per cell or per byte is back", big.allocs, small.allocs)
	}
	if big.bytes > small.bytes+1<<10 {
		t.Fatalf("a forwarded query allocates %d bytes on a %d-byte body and %d on a %d-byte one: something proportional to the body is back",
			big.bytes, big.body, small.bytes, small.body)
	}
}

// BenchmarkShipTaggedCommit is the ship layer on the object a ring
// commit ships: the benchmark's K=20 network-bound ring_adapt session
// with eight tagged commits on its dedup record. One op seals the
// session's snapshot and runs a successor's /cluster/replicate handler
// on it in process — read, strict decode, the fences, the held replica,
// the ack. Format 5 sealed it in 40 601 B, the drifted platform's JSON
// encoded afresh on every seal (~200 µs/op on a 2-core x86-64 box);
// format 6 seals 41 361 B — the creation platform's stored bytes and a
// binary capacities section, the committed answer riding once as the
// newest record — with no platform encode (~135 µs/op on the same box).
func BenchmarkShipTaggedCommit(b *testing.B) {
	sess, pl := benchSession(b, "ring_adapt", 20)
	still := make([]float64, pl.K())
	for i := range still {
		still[i] = 1
	}
	for i := 0; i < commitDedupDepth; i++ {
		if _, err := sess.EpochIdempotent(&EpochRequest{SpeedFactor: still}, fmt.Sprintf("commit-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	successor := NewNodeWithConfig(NewServer(NewPool(4)), "http://successor", nil, nil, NodeConfig{}).Handler()
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sb, err := seal(sess)
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/cluster/replicate", sb.body()) // no declared length, as sent
		rec.Body.Reset()
		successor.ServeHTTP(rec, req)
		req.Body.Close()
		sb.release()
		if rec.Code != http.StatusOK {
			b.Fatalf("replicate: status %d: %s", rec.Code, rec.Body)
		}
	}
}

// TestSealedBytesOutliveEveryReader holds the sealed buffer's lifetime
// under concurrency: the shipper lets go first, while request bodies
// opened over the bytes are still being read on other goroutines (as
// net/http's transport may after RoundTrip returned), and another
// session seals into whatever the pool hands out meanwhile. Every
// reader sees the sealed bytes intact, a second Close releases nothing,
// and the buffer is released once, by the last holder. Run with -race:
// a buffer recycled early is a reported race as well as a mismatch.
func TestSealedBytesOutliveEveryReader(t *testing.T) {
	_, sess, _ := imageFixture(t, 6, 98, "lprg")
	_, other, _ := imageFixture(t, 9, 99, "lprg")
	for round := 0; round < 20; round++ {
		_, sb, err := seal(sess)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(sb.bytes())
		bodies := make([]io.ReadCloser, 4)
		for i := range bodies {
			bodies[i] = sb.body()
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, body := range bodies {
			wg.Add(1)
			go func(body io.ReadCloser) {
				defer wg.Done()
				<-start
				got, err := io.ReadAll(body)
				body.Close()
				body.Close()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("a reader saw %d bytes (%v), not the %d sealed", len(got), err, len(want))
				}
			}(body)
		}
		sb.release()
		close(start)
		for i := 0; i < 4; i++ {
			_, ob, err := seal(other)
			if err != nil {
				t.Fatal(err)
			}
			ob.release()
		}
		wg.Wait()
		if refs := sb.refs.Load(); refs != 0 {
			t.Fatalf("round %d: %d references left after every holder let go", round, refs)
		}
	}
}
