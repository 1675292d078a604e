package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
)

// olderStats is the "stats" member a commit record carried when a
// report held a copy of the session's solver counters, as that encoder
// wrote it in a record's compact bytes.
const olderStats = `,"stats":{"pivots":118,"primalPivots":0,"dualPivots":118,"boundFlips":3,` +
	`"refactorizations":2,"coldSolves":1,"warmSolves":9,"coldFallbacks":0,"ftUpdates":0,` +
	`"dseWeightResets":1,"forks":0,"peakForks":0,"batches":0,"batchMaxSize":0,` +
	`"phase":{"ftranNanos":0,"btranNanos":0,"pricingNanos":0,"ratioTestNanos":0,"refactorNanos":0}}`

// TestAnswerBytesAreStateAndQueryOnly: an answer body is a function of
// the committed state and the question, not of what the session did
// before. On a K = 20 session drawn as the benchmark draws ring_adapt's,
// for a committed query, a relaxed, a boxed and a heuristic (LPRG)
// what-if:
//   - a cache hit's body — every query's is one — is the body of the
//     same request solved afresh, bar its "cached" member: a what-if
//     after the answer table is flushed, the query by running the commit
//     solve again (committedBody), since a query never solves;
//   - a session restored from a snapshot answers the next tagged commit,
//     and then each of the four, with the live session's bytes.
//
// And a commit record written when reports carried a "stats" member
// restores, is kept on record, and answers a retried commit ID with the
// live retry's bytes.
func TestAnswerBytesAreStateAndQueryOnly(t *testing.T) {
	const K = 20
	live, pl := benchSession(t, "ring_adapt", K)
	r0 := remoteRoutes(pl)[0]
	asks := []struct {
		name, sub, body string
		relaxed         bool
	}{
		{"query", "query", "", false},
		{"relaxed", "whatif", `{"gateways":[{"cluster":1,"value":90}],"relax":true}`, true},
		{"boxed", "whatif", fmt.Sprintf(`{"bounds":[{"from":%d,"to":%d,"lb":1,"ub":2}]}`, r0[0], r0[1]), true},
		{"lprg", "whatif", `{"speeds":[{"cluster":0,"value":55}]}`, false},
	}
	epoch, err := json.Marshal(&EpochRequest{SpeedFactor: driftFactors(K, 0.9), GatewayFactor: driftFactors(K, 1.1)})
	if err != nil {
		t.Fatal(err)
	}
	// handler serves sess through a Server of its own.
	handler := func(sess *Session) http.Handler {
		srv := NewServer(NewPool(2))
		srv.Pool().Install(sess)
		return srv.Handler()
	}
	post := func(h http.Handler, sess *Session, sub, body, commitID string) []byte {
		t.Helper()
		req := httptest.NewRequest("POST", "/sessions/"+sess.id+"/"+sub, bytes.NewReader([]byte(body)))
		if commitID != "" {
			req.Header.Set(commitIDHeader, commitID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s", sub, body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	liveH := handler(live)
	post(liveH, live, "epoch", string(epoch), "")
	// solve answers a request afresh, uncached.
	solve := func(sub, body string) []byte {
		t.Helper()
		if sub == "query" {
			return committedBody(t, live)
		}
		live.answers.flush()
		return post(liveH, live, sub, body, "")
	}

	for _, a := range asks {
		solved := solve(a.sub, a.body)
		if bytes.Contains(solved, []byte(`"relaxed": true`)) != a.relaxed {
			t.Fatalf("%s: not the answer kind intended:\n%s", a.name, solved)
		}
		hit := post(liveH, live, a.sub, a.body, "")
		fresh := solve(a.sub, a.body)
		if !bytes.Equal(fresh, solved) {
			t.Fatalf("%s: solved twice, the bodies differ\nfirst %s\nthen  %s", a.name, solved, fresh)
		}
		if want := withCachedLine(t, fresh); !bytes.Equal(hit, want) {
			t.Fatalf("%s: the hit is not the fresh solve plus its cached line\n got %s\nwant %s", a.name, hit, want)
		}
	}

	restore := func(snap *cluster.SessionSnapshot) *Session {
		t.Helper()
		enc, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := cluster.DecodeSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		sess, _, warm, err := RestoreSession(dec)
		if err != nil || !warm {
			t.Fatalf("restore: warm %v, %v", warm, err)
		}
		return sess
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := restore(snap)
	restoredH := handler(restored)
	committed := post(liveH, live, "epoch", string(epoch), "c1")
	if got := post(restoredH, restored, "epoch", string(epoch), "c1"); !bytes.Equal(got, committed) {
		t.Fatalf("restored commit body differs from the live one\n got %s\nwant %s", got, committed)
	}
	for _, a := range asks {
		if got, want := post(restoredH, restored, a.sub, a.body, ""), post(liveH, live, a.sub, a.body, ""); !bytes.Equal(got, want) {
			t.Fatalf("%s after the commit: restored answers\n%s\nlive\n%s", a.name, got, want)
		}
	}

	// The live session holds c1's record; ship it as an older build
	// wrote it, with the counters' member.
	snap, err = live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	i := len(snap.RecentCommits) - 1
	if i < 0 || snap.RecentCommits[i].ID != "c1" {
		t.Fatalf("commit c1 is not on the live record: %+v", snap.RecentCommits)
	}
	rec := snap.RecentCommits[i].Report
	snap.RecentCommits[i].Report = append(append(bytes.Clone(rec[:len(rec)-1]), olderStats...), '}')
	older := restore(snap)
	resealed, err := older.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(resealed.RecentCommits) != len(snap.RecentCommits) {
		t.Fatalf("the restored session sealed %d commit records, it was restored with %d", len(resealed.RecentCommits), len(snap.RecentCommits))
	}
	if got := post(handler(older), older, "epoch", string(epoch), "c1"); !bytes.Equal(got, committed) {
		t.Fatalf("a retried commit answered from an older record differs from the commit\n got %s\nwant %s", got, committed)
	}
	if got := post(liveH, live, "epoch", string(epoch), "c1"); !bytes.Equal(got, committed) {
		t.Fatalf("a retried commit on the live session differs from the commit\n got %s\nwant %s", got, committed)
	}
}
