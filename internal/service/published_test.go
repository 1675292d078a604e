package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestCommittedReadsTakeNoLock: a read of the committed state loads the
// published value and never waits for the session mutex, which a solve
// holds for its whole length. With the test holding the mutex, Info,
// PlatformJSON, Snapshot, Query and a same-epoch /cluster/replicate to
// the session's owner (whose epoch fence reads Info) all return.
func TestCommittedReadsTakeNoLock(t *testing.T) {
	const K = 4
	pool := NewPool(4)
	h := NewNodeWithConfig(NewServer(pool), "http://self", nil, nil, NodeConfig{}).Handler()
	body := []byte(`{"platform":` + string(platformJSON(t, testPlatform(t, K, 3))) + `}`)
	if rec := serveReq(h, "POST", "/sessions", body); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	sess := pool.Sessions()[0]
	if _, err := sess.EpochIdempotent(&EpochRequest{SpeedFactor: driftFactors(K, 0.9)}, ""); err != nil {
		t.Fatal(err)
	}
	_, sb, err := seal(sess)
	if err != nil {
		t.Fatal(err)
	}
	sealed := bytes.Clone(sb.bytes())
	sb.release()

	reads := []struct {
		name string
		read func() error
	}{
		{"Info", func() error {
			if e := sess.Info().Epoch; e != 1 {
				return fmt.Errorf("epoch %d, want 1", e)
			}
			return nil
		}},
		{"PlatformJSON", func() error { _, err := sess.PlatformJSON(); return err }},
		{"Snapshot", func() error { _, err := sess.Snapshot(); return err }},
		{"Query", func() error { _, err := sess.Query(); return err }},
		{"replicate", func() error {
			if rec := serveReq(h, "POST", "/cluster/replicate", sealed); rec.Code != http.StatusOK {
				return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			return nil
		}},
	}
	sess.mu.Lock()
	done := make(chan int, len(reads))
	errs := make([]error, len(reads))
	for i, r := range reads {
		go func() {
			errs[i] = r.read()
			done <- i
		}()
	}
	returned := make([]bool, len(reads))
	timeout := time.After(10 * time.Second)
	for n := 0; n < len(reads); n++ {
		select {
		case i := <-done:
			returned[i] = true
		case <-timeout:
			n = len(reads)
		}
	}
	sess.mu.Unlock()
	for i, r := range reads {
		if !returned[i] {
			<-done
			t.Errorf("%s waited for the session mutex", r.name)
		} else if errs[i] != nil {
			t.Errorf("%s: %v", r.name, errs[i])
		}
	}
}

// TestShipNeverGoesBackAnEpoch: two ships of one session — PersistAll's
// and a commit's — run outside the session lock, and the one that seals
// the older state must not save it over the newer. PersistAll's seal of
// the creation state is held in its answer encode while a commit
// through Node.Handler seals, saves and is acked; released, PersistAll
// finds a newer state shipped and skips its save, so the store holds
// the commit's epoch.
func TestShipNeverGoesBackAnEpoch(t *testing.T) {
	const K = 4
	store, err := cluster.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	n := NewNodeWithConfig(NewServer(pool), "http://self", nil, store, NodeConfig{})
	h := n.Handler()
	body := []byte(`{"platform":` + string(platformJSON(t, testPlatform(t, K, 5))) + `}`)
	if rec := serveReq(h, "POST", "/sessions", body); rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	id := pool.Sessions()[0].id

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	orig := encodeAnswer
	t.Cleanup(func() { encodeAnswer = orig })
	encodeAnswer = func(dst []byte, rep *SolveReport) ([]byte, bool) {
		if rep.Epoch == 0 {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return orig(dst, rep)
	}
	persisted := make(chan struct{})
	go func() {
		n.PersistAll()
		close(persisted)
	}()
	<-entered
	epoch := fmt.Sprintf(`{"speedFactor":[%s0.9]}`, strings.Repeat("0.9,", K-1))
	if rec := serveReq(h, "POST", "/sessions/"+id+"/epoch", []byte(epoch)); rec.Code != http.StatusOK {
		close(release)
		t.Fatalf("commit: status %d: %s", rec.Code, rec.Body)
	}
	close(release)
	<-persisted
	snap, err := store.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 {
		t.Fatalf("the store holds epoch %d after an acked commit to epoch 1", snap.Epoch)
	}
}

// TestWorkCountersOnMetrics: /metrics carries the counters the
// benchmark reads from /stats as pool-wide families —
// schedd_solver_forks_total (total.forks), schedd_whatifs_total,
// schedd_coalesced_whatifs_total and schedd_epochs_total (the rows'
// whatIfs, coalescedWhatIfs and epochs) — equal to the /stats sums on
// every node of a three-node ring
// after what-ifs, a coalesced pair, a batch with repeats and commits;
// and, the evicted session's counts folded into the pool's retired
// aggregate, an eviction lowers none of them.
func TestWorkCountersOnMetrics(t *testing.T) {
	const K = 4
	nodes, servers := startRing(t, 3, false)
	client := servers[0].Client()
	var ids []string
	for seed := int64(71); seed < 73; seed++ {
		ids = append(ids, ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, K, seed))}).ID)
	}
	post := func(path string, body any) {
		t.Helper()
		if status, raw, err := doJSONRaw(client, "POST", servers[1].URL+path, body); err != nil || status != http.StatusOK {
			t.Fatalf("POST %s: status %d err %v: %s", path, status, err, raw)
		}
	}
	for _, id := range ids {
		for i := range 3 {
			wi := &WhatIfRequest{Gateways: []ClusterValue{{Cluster: i % K, Value: 40}}, Relax: true}
			post("/sessions/"+id+"/whatif", wi)
			post("/sessions/"+id+"/whatif", wi) // a cache hit
		}
		batch := &BatchWhatIfRequest{}
		for i := range 6 {
			batch.Queries = append(batch.Queries, WhatIfRequest{Speeds: []ClusterValue{{Cluster: i % 2, Value: 30}}, Relax: true})
		}
		post("/sessions/"+id+"/whatif/batch", batch)
		post("/sessions/"+id+"/epoch", &EpochRequest{SpeedFactor: driftFactors(K, 0.95)})
	}
	// A coalesced pair on the first session, at its owner: the second
	// what-if joins the first's flight while the mutex holds it.
	var sess *Session
	for _, nd := range nodes {
		if s := nd.srv.Pool().Get(ids[0]); s != nil {
			sess = s
		}
	}
	wi := &WhatIfRequest{Speeds: []ClusterValue{{Cluster: 1, Value: 20}}, Relax: true}
	owned := sess.whatIfs.Load()
	sess.mu.Lock()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.WhatIf(wi); err != nil {
				t.Error(err)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); sess.whatIfs.Load() == owned; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the what-if flight never registered")
		}
	}
	time.Sleep(20 * time.Millisecond) // let the second caller park on the flight
	sess.mu.Unlock()
	wg.Wait()

	families := []string{"schedd_solver_forks_total", "schedd_whatifs_total", "schedd_coalesced_whatifs_total", "schedd_epochs_total"}
	read := func(i int) (metrics, stats []float64) {
		t.Helper()
		exp := scrape(t, client, servers[i].URL+"/metrics")
		for _, f := range families {
			metrics = append(metrics, metricValue(t, exp, f))
		}
		var st PoolStatsResponse
		doJSON(t, client, "GET", servers[i].URL+"/stats", nil, &st, http.StatusOK)
		stats = []float64{float64(st.Total.Forks), 0, 0, 0}
		for _, row := range st.Sessions {
			stats[1] += float64(row.WhatIfs)
			stats[2] += float64(row.CoalescedWhatIfs)
			stats[3] += float64(row.Epochs)
		}
		return metrics, stats
	}
	var sum [4]float64
	before := make([][]float64, len(nodes))
	for i := range nodes {
		m, st := read(i)
		for j, f := range families {
			if m[j] != st[j] {
				t.Errorf("node %d: %s is %v, /stats sums %v", i, f, m[j], st[j])
			}
			sum[j] += m[j]
		}
		before[i] = m
	}
	if sum[0] == 0 || sum[1] == 0 || sum[2] < 5 || sum[3] != float64(len(ids)) {
		t.Fatalf("the traffic did not reach every counter: forks, what-ifs, coalesced, epochs = %v", sum)
	}
	for _, nd := range nodes {
		nd.srv.Pool().Evict(ids[0])
	}
	for i := range nodes {
		m, _ := read(i)
		for j, f := range families {
			if m[j] < before[i][j] {
				t.Errorf("node %d: the eviction lowered %s from %v to %v", i, f, before[i][j], m[j])
			}
		}
	}
}

// TestUndecodableRecordStaysOnRecord: a restored session keeps every
// commit record as received. One whose report does not decode stays on
// record: a retry of its ID answers an error, and the commit is not
// applied a second time.
func TestUndecodableRecordStaysOnRecord(t *testing.T) {
	const K = 4
	pl := testPlatform(t, K, 9)
	cfg, err := parseConfig(&CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := newSession(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"c1", "c2"} {
		if _, err := live.EpochIdempotent(&EpochRequest{SpeedFactor: driftFactors(K, 0.9)}, id); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.RecentCommits) != 2 || snap.RecentCommits[0].ID != "c1" {
		t.Fatalf("records %+v, want c1 and c2", snap.RecentCommits)
	}
	snap.RecentCommits[0].Report = []byte(`{"epoch":`)
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cluster.DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, _, err := RestoreSession(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(restored.state.Load().records); got != 2 {
		t.Fatalf("the restored session keeps %d records, want 2", got)
	}
	if _, err := restored.EpochIdempotent(&EpochRequest{SpeedFactor: driftFactors(K, 0.9)}, "c1"); err == nil {
		t.Fatal("a retry of an undecodable record answered without an error")
	}
	if e := restored.Info().Epoch; e != 2 {
		t.Fatalf("the retry moved the epoch to %d", e)
	}
	resealed, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resealed.RecentCommits[0].Report, []byte(`{"epoch":`)) {
		t.Fatalf("the record was resealed as %s, not as received", resealed.RecentCommits[0].Report)
	}
	var rep SolveReport
	if err := json.Unmarshal(resealed.RecentCommits[1].Report, &rep); err != nil || rep.Epoch != 2 {
		t.Fatalf("the newest record does not decode to epoch 2: %v", err)
	}
}
