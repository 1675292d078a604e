package service

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
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
	stored, err := os.ReadFile(filepath.Join(nodes[owner].store.Dir(), created.ID+".snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	held := nodes[successor].getReplica(created.ID)
	if held == nil || held.snap.Epoch != 1 {
		t.Fatalf("successor holds %+v, want the epoch-1 replica", held)
	}
	if !bytes.Equal(stored, held.data) {
		t.Fatalf("store file (%d bytes) and held replica (%d bytes) of one commit differ", len(stored), len(held.data))
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
// primitive bounds: a seed answering /cluster/join with more than
// maxBodyBytes is an error, not an unbounded decode.
func TestOversizedPeerResponseIsAnError(t *testing.T) {
	seed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"members":["http://a","`))      //nolint:errcheck
		w.Write(bytes.Repeat([]byte("x"), maxBodyBytes)) //nolint:errcheck
		w.Write([]byte(`"]}`))                           //nolint:errcheck
	}))
	defer seed.Close()
	n := NewNode(NewServer(NewPool(1)), "http://self", nil, nil)
	err := n.Join(seed.URL)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Join against an oversized answer returned %v, want a bounded-read error", err)
	}
	if got := n.Members(); len(got) != 1 {
		t.Fatalf("the oversized member list was adopted: %d members", len(got))
	}
}
