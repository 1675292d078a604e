package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// startRingCfg boots count ring nodes on httptest servers with a
// shared NodeConfig (RetrySeed varied per node), fully meshed, and
// starts the heartbeat loop when cfg.Heartbeat > 0.
func startRingCfg(t *testing.T, count int, cfg NodeConfig) ([]*Node, []*httptest.Server) {
	t.Helper()
	handlers := make([]*lateHandler, count)
	servers := make([]*httptest.Server, count)
	urls := make([]string, count)
	for i := range handlers {
		handlers[i] = &lateHandler{}
		servers[i] = httptest.NewServer(handlers[i])
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	nodes := make([]*Node, count)
	for i := range nodes {
		c := cfg
		c.RetrySeed = int64(1000 + i)
		nodes[i] = NewNodeWithConfig(NewServer(NewPool(16)), urls[i], urls, nil, c)
		handlers[i].set(nodes[i].Handler())
	}
	for _, n := range nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
	})
	return nodes, servers
}

// fastDetect is a failure-detection config compressed for tests:
// death confirmed within a few hundred ms of a kill.
func fastDetect() NodeConfig {
	return NodeConfig{
		Heartbeat:    25 * time.Millisecond,
		SuspectAfter: 80 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
	}
}

// ringOwnerOf returns the index of the node owning id, and the index
// of the first other member on its successor chain (the replica
// holder at replication 2).
func ringOwnerOf(t *testing.T, nodes []*Node, id string) (owner, successor int) {
	t.Helper()
	succ := nodes[0].currentRing().Successors(id, 2)
	if len(succ) < 2 {
		t.Fatalf("ring too small: successors = %v", succ)
	}
	owner, successor = -1, -1
	for i, n := range nodes {
		if n.self == succ[0] {
			owner = i
		}
		if n.self == succ[1] {
			successor = i
		}
	}
	if owner < 0 || successor < 0 {
		t.Fatalf("owner/successor not found for %v among nodes", succ)
	}
	return owner, successor
}

// TestReplicationFanOut pins the replication contract: after a create
// and an epoch commit through any node, the owner's ring successor
// holds a passive replica at the committed epoch — before the client's
// responses returned (the hook is synchronous).
func TestReplicationFanOut(t *testing.T) {
	nodes, servers := startRing(t, 3, false) // static membership, replication 2
	client := servers[0].Client()
	pl := testPlatform(t, 6, 201)
	resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
	owner, successor := ringOwnerOf(t, nodes, resp.ID)

	rep := nodes[successor].getReplica(resp.ID)
	if rep == nil {
		t.Fatalf("successor holds no replica after create")
	}
	if rep.snap.Epoch != 0 {
		t.Fatalf("replica epoch = %d, want 0", rep.snap.Epoch)
	}
	// Nobody else holds one, and the owner holds the live session.
	for i, n := range nodes {
		if i != successor && n.replicaCount() != 0 {
			t.Fatalf("node %d holds %d replicas, want 0", i, n.replicaCount())
		}
	}
	if nodes[owner].srv.Pool().Get(resp.ID) == nil {
		t.Fatalf("owner does not hold the live session")
	}

	var erep SolveReport
	doJSON(t, client, "POST", servers[0].URL+"/sessions/"+resp.ID+"/epoch", &EpochRequest{
		SpeedFactor: driftFactors(resp.K, 0.9),
	}, &erep, http.StatusOK)
	rep = nodes[successor].getReplica(resp.ID)
	if rep == nil || rep.snap.Epoch != 1 {
		t.Fatalf("replica not refreshed by commit: %+v", rep)
	}
	if st := nodes[owner].Stats(); st.Cluster.ReplicasSent == 0 || st.Cluster.ReplicaErrors != 0 {
		t.Fatalf("owner replication stats wrong: %+v", st.Cluster)
	}
}

// TestReadFailoverPromotesReplica kills the owner (no failure
// detection running — the suspicion window case) and checks that a
// query through a surviving non-owner fails over to the replica
// holder, which promotes the passive replica warm and answers
// identically, with zero failed client requests and zero cold solves.
func TestReadFailoverPromotesReplica(t *testing.T) {
	nodes, servers := startRing(t, 3, false)
	client := servers[0].Client()
	pl := testPlatform(t, 6, 202)
	resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
	owner, successor := ringOwnerOf(t, nodes, resp.ID)

	// Commit drift, record the committed answer.
	var erep SolveReport
	doJSON(t, client, "POST", servers[0].URL+"/sessions/"+resp.ID+"/epoch", &EpochRequest{
		SpeedFactor:   driftFactors(resp.K, 0.93),
		GatewayFactor: driftFactors(resp.K, 1.05),
	}, &erep, http.StatusOK)
	_, preRaw, err := doJSONRaw(client, "POST", servers[owner].URL+"/sessions/"+resp.ID+"/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := stripVolatile(t, preRaw)

	servers[owner].Close() // SIGKILL the owner

	// Query through every survivor: each must succeed on this first
	// post-kill request (dial-refused → immediate successor failover).
	for i := range nodes {
		if i == owner {
			continue
		}
		status, raw, err := doJSONRaw(servers[i].Client(), "POST", servers[i].URL+"/sessions/"+resp.ID+"/query", nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("query via node %d after owner kill: status %d err %v body %s", i, status, err, raw)
		}
		if got := stripVolatile(t, raw); got != pre {
			t.Fatalf("failover answer differs:\n%s\nvs\n%s", got, pre)
		}
	}
	succ := nodes[successor]
	if got := succ.promotions.Value(); got != 1 {
		t.Fatalf("successor promotions = %d, want 1", got)
	}
	if w, c := succ.warmRebuilds.Value(), succ.coldRebuilds.Value(); c != 0 || w != 1 {
		t.Fatalf("successor rebuilt warm=%d cold=%d, want 1/0", w, c)
	}
	// Promotion consumes the passive copy: replication fan-out excludes
	// self, so a kept replica would freeze at the promotion-time epoch
	// and could later reinstall stale state over committed epochs.
	if nodes[successor].getReplica(resp.ID) != nil {
		t.Fatalf("successor still holds a passive replica after promotion")
	}
}

// TestPromotionConsumesReplicaAndPrefersStore pins the stale-replica
// rollback fix: a session promoted from a replica advances through
// commits the replica never sees (fan-out excludes self). If the pool
// then LRU-evicts the live session while a stale passive copy is
// parked here (a late fan-out from the pre-failover owner), the next
// promotion must install the store's fresher snapshot — never the
// stale replica — and must not roll the store back through the
// install hook.
func TestPromotionConsumesReplicaAndPrefersStore(t *testing.T) {
	store, err := cluster.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNodeWithConfig(NewServer(NewPool(8)), "http://self.invalid", nil, store, NodeConfig{})
	pl := testPlatform(t, 6, 209)
	sess, created, err := n.srv.Pool().GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, pl)})
	if err != nil || !created {
		t.Fatalf("create: created=%v err=%v", created, err)
	}
	id := sess.id

	// Seal the epoch-0 state exactly as a parked replica would hold it.
	snap0, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data0, err := snap0.Encode()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := cluster.DecodeSnapshot(data0)
	if err != nil {
		t.Fatal(err)
	}

	// Commit drift twice; the session hook persists epoch 2 to the store.
	for i := 0; i < 2; i++ {
		if _, err := sess.Epoch(&EpochRequest{SpeedFactor: driftFactors(pl.K(), 0.95)}); err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
	}
	wantRaw, err := json.Marshal(mustQuery(t, sess))
	if err != nil {
		t.Fatal(err)
	}

	// LRU-evict the live session, then park the stale replica.
	n.srv.Pool().Evict(id)
	n.repMu.Lock()
	n.replicas[id] = &replica{sb: sealedCopy(data0), snap: stale}
	n.repMu.Unlock()

	// Next touch: promotion installs the fresher source and consumes
	// the passive copy.
	n.promoteIfReplica(id)
	live := n.srv.Pool().Get(id)
	if live == nil {
		t.Fatalf("promotion installed nothing")
	}
	if got := live.Info().Epoch; got != 2 {
		t.Fatalf("promoted session at epoch %d, want 2 (stale replica won)", got)
	}
	if n.getReplica(id) != nil {
		t.Fatalf("replica survived promotion")
	}
	stored, err := store.Load(id)
	if err != nil || stored.Epoch != 2 {
		t.Fatalf("store rolled back: epoch %v err %v", stored, err)
	}
	gotRaw, err := json.Marshal(mustQuery(t, live))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripVolatile(t, gotRaw), stripVolatile(t, wantRaw); got != want {
		t.Fatalf("promoted answer differs from committed answer:\n%s\nvs\n%s", got, want)
	}
}

func mustQuery(t *testing.T, s *Session) *SolveReport {
	t.Helper()
	rep, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestForgetReachesFormerSuccessors pins the deletion tombstone reach:
// the forget fan-out goes to every known member, so a replica stranded
// on a node outside the current replication targets (as a membership
// change would leave it) cannot resurrect the deleted session later.
func TestForgetReachesFormerSuccessors(t *testing.T) {
	nodes, servers := startRing(t, 3, false)
	client := servers[0].Client()
	pl := testPlatform(t, 6, 210)
	resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
	owner, successor := ringOwnerOf(t, nodes, resp.ID)
	stray := -1
	for i := range nodes {
		if i != owner && i != successor {
			stray = i
		}
	}
	rep := nodes[successor].getReplica(resp.ID)
	if rep == nil {
		t.Fatalf("successor holds no replica to strand")
	}
	rep.sb.hold() // the stray's reference, released by its drop
	nodes[stray].repMu.Lock()
	nodes[stray].replicas[resp.ID] = rep
	nodes[stray].repMu.Unlock()

	status, raw, err := doJSONRaw(client, "DELETE", servers[0].URL+"/sessions/"+resp.ID, nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("delete: status %d err %v body %s", status, err, raw)
	}
	for i, n := range nodes {
		if n.getReplica(resp.ID) != nil {
			t.Fatalf("node %d still holds a replica after delete", i)
		}
		if n.srv.Pool().Get(resp.ID) != nil {
			t.Fatalf("node %d still holds the live session after delete", i)
		}
	}
}

// slowForgets holds every /cluster/forget send for a second.
type slowForgets struct{ http.RoundTripper }

func (s slowForgets) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/cluster/forget" {
		time.Sleep(time.Second)
	}
	return s.RoundTripper.RoundTrip(r)
}

// TestDeleteForgetsAtOnce: the tombstones of a DELETE go to every other
// member at once, so with three members each taking a second to answer
// a forget, the DELETE is answered in about one second, not three, and
// every member has dropped the session.
func TestDeleteForgetsAtOnce(t *testing.T) {
	nodes, servers := startRingCfg(t, 4, NodeConfig{Transport: slowForgets{defaultTransport()}})
	client := servers[0].Client()
	resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 211))})
	owner, _ := ringOwnerOf(t, nodes, resp.ID)
	start := time.Now()
	status, raw, err := doJSONRaw(client, "DELETE", servers[owner].URL+"/sessions/"+resp.ID, nil)
	took := time.Since(start)
	if err != nil || status != http.StatusOK {
		t.Fatalf("delete: status %d err %v body %s", status, err, raw)
	}
	if took >= 2*time.Second {
		t.Fatalf("delete answered after %v: the forgets went one member at a time", took)
	}
	for i, n := range nodes {
		if n.getReplica(resp.ID) != nil || n.srv.Pool().Get(resp.ID) != nil {
			t.Fatalf("node %d still holds the session after delete", i)
		}
	}
}

// TestOwnerDeathPromotionAndCommit runs the full failover story with
// live failure detection: kill the owner under a 3-node heartbeating
// ring, wait for confirmation, and check (a) the survivors' rings
// dropped the dead member, (b) the successor promoted its replica
// warm, (c) an epoch commit issued right after the kill succeeds via
// retry against the promoted owner, and (d) answers stay identical.
func TestOwnerDeathPromotionAndCommit(t *testing.T) {
	nodes, servers := startRingCfg(t, 3, fastDetect())
	client := servers[0].Client()
	pl := testPlatform(t, 6, 203)
	resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
	owner, _ := ringOwnerOf(t, nodes, resp.ID)
	var erep SolveReport
	doJSON(t, client, "POST", servers[0].URL+"/sessions/"+resp.ID+"/epoch", &EpochRequest{
		SpeedFactor: driftFactors(resp.K, 0.9),
	}, &erep, http.StatusOK)

	nodes[owner].Stop()
	servers[owner].Close()
	killedURL := nodes[owner].self

	// A commit through a survivor must succeed: dial-refused retries
	// span the death confirmation, then land on the promoted owner.
	surv := (owner + 1) % 3
	var erep2 SolveReport
	doJSON(t, servers[surv].Client(), "POST", servers[surv].URL+"/sessions/"+resp.ID+"/epoch", &EpochRequest{
		GatewayFactor: driftFactors(resp.K, 1.1),
	}, &erep2, http.StatusOK)
	if erep2.Epoch != 2 {
		t.Fatalf("post-kill commit epoch = %d, want 2", erep2.Epoch)
	}

	// Death must be confirmed on the survivors within the detector's
	// budget, and the ring shrunk to 2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		confirmed := true
		for i, n := range nodes {
			if i == owner {
				continue
			}
			if st, _ := n.membership.State(killedURL); st != cluster.StateDead {
				confirmed = false
			}
			if len(n.Members()) != 2 {
				confirmed = false
			}
		}
		if confirmed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("death of %s not confirmed within budget", killedURL)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Both survivors answer the committed state identically, all warm.
	var answers []string
	for i := range nodes {
		if i == owner {
			continue
		}
		status, raw, err := doJSONRaw(servers[i].Client(), "POST", servers[i].URL+"/sessions/"+resp.ID+"/query", nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("post-failover query via %d: %d %v", i, status, err)
		}
		answers = append(answers, stripVolatile(t, raw))
	}
	if answers[0] != answers[1] {
		t.Fatalf("survivors disagree:\n%s\nvs\n%s", answers[0], answers[1])
	}
	var totalCold uint64
	for i, n := range nodes {
		if i == owner {
			continue
		}
		totalCold += n.coldRebuilds.Value()
	}
	if totalCold != 0 {
		t.Fatalf("failover cold-rebuilt %d sessions, want 0", totalCold)
	}
}

// TestQuorumFencesCommits pins the partition fence: a replica that
// has confirmed the death of a majority of the membership refuses
// epoch commits with 503 (it may be the partitioned minority — the
// majority side could have promoted new owners), while reads keep
// working; contact from a peer restores quorum and lifts the fence.
func TestQuorumFencesCommits(t *testing.T) {
	handler := &lateHandler{}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	n := NewNodeWithConfig(NewServer(NewPool(8)), srv.URL,
		[]string{"http://203.0.113.1:1", "http://203.0.113.2:1"}, nil,
		NodeConfig{SuspectAfter: time.Millisecond, DeadAfter: time.Millisecond})
	handler.set(n.Handler())
	client := srv.Client()

	// Create while quorum holds (peers alive until ticked). Forwarding
	// would try the unroutable peers, so create as a forwarded request
	// — served locally by contract.
	pl := testPlatform(t, 6, 204)
	body, _ := json.Marshal(&CreateSessionRequest{Platform: platformJSON(t, pl)})
	req, _ := http.NewRequest("POST", srv.URL+"/sessions", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "test")
	cres, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var created CreateSessionResponse
	json.NewDecoder(cres.Body).Decode(&created) //nolint:errcheck
	cres.Body.Close()
	if cres.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", cres.StatusCode)
	}

	// Confirm both peers dead: 1 alive of 3 known — quorum lost.
	now := time.Now()
	n.membership.Tick(now.Add(10 * time.Millisecond))
	n.membership.Tick(now.Add(20 * time.Millisecond))
	n.syncRing()
	if n.membership.Quorum() {
		t.Fatal("quorum should be lost")
	}

	epoch, _ := json.Marshal(&EpochRequest{SpeedFactor: driftFactors(created.K, 0.9)})
	ereq, _ := http.NewRequest("POST", srv.URL+"/sessions/"+created.ID+"/epoch", bytes.NewReader(epoch))
	ereq.Header.Set("Content-Type", "application/json")
	ereq.Header.Set(forwardedHeader, "test")
	eres, err := client.Do(ereq)
	if err != nil {
		t.Fatal(err)
	}
	eres.Body.Close()
	if eres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced commit status = %d, want 503", eres.StatusCode)
	}
	if n.fencedCommits.Value() != 1 {
		t.Fatalf("fencedCommits = %d, want 1", n.fencedCommits.Value())
	}
	// Reads are NOT fenced: the committed state is still valid.
	status, _, err := doJSONRaw(client, "POST", srv.URL+"/sessions/"+created.ID+"/query", nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("read during lost quorum: %d %v", status, err)
	}

	// One peer comes back (new incarnation): 2 of 3 — fence lifts.
	n.membership.ObserveAck("http://203.0.113.1:1", 999, time.Now())
	ereq2, _ := http.NewRequest("POST", srv.URL+"/sessions/"+created.ID+"/epoch", bytes.NewReader(epoch))
	ereq2.Header.Set("Content-Type", "application/json")
	ereq2.Header.Set(forwardedHeader, "test")
	eres2, err := client.Do(ereq2)
	if err != nil {
		t.Fatal(err)
	}
	eres2.Body.Close()
	if eres2.StatusCode != http.StatusOK {
		t.Fatalf("post-requorum commit status = %d, want 200", eres2.StatusCode)
	}
}

// TestReplicateHandlerFencing pins the replicate endpoint's fences:
// stale epochs and stale incarnations are rejected with 409 and
// displace nothing; fresh replicas ack with the snapshot checksum.
func TestReplicateHandlerFencing(t *testing.T) {
	handler := &lateHandler{}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	client := srv.Client()

	// Build two sealed snapshots of one session at epochs 1 and 2.
	pl := testPlatform(t, 6, 205)
	cfg, err := parseConfig(&CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newSession(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Epoch(&EpochRequest{SpeedFactor: driftFactors(pl.K(), 0.95)}); err != nil {
		t.Fatal(err)
	}
	snap1, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data1, err := snap1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Epoch(&EpochRequest{SpeedFactor: driftFactors(pl.K(), 0.9)}); err != nil {
		t.Fatal(err)
	}
	snap2, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data2, err := snap2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	n := passiveHolder(t, srv.URL, snap2.ID)
	handler.set(n.Handler())

	post := func(data []byte, from string, inc uint64) (int, replicateAck) {
		req, _ := http.NewRequest("POST", srv.URL+"/cluster/replicate", bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		if from != "" {
			req.Header.Set(fromHeader, from)
			req.Header.Set(incarnationHeader, fmt.Sprintf("%d", inc))
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack replicateAck
		json.NewDecoder(resp.Body).Decode(&ack) //nolint:errcheck
		return resp.StatusCode, ack
	}

	// Fresh replica at epoch 2: accepted, checksum acked.
	status, ack := post(data2, "http://peer", 7)
	if status != http.StatusOK || ack.Checksum != snap2.Checksum || ack.Epoch != 2 {
		t.Fatalf("replicate: %d %+v", status, ack)
	}
	// Late fan-out of epoch 1: fenced by epoch.
	if status, _ := post(data1, "http://peer", 7); status != http.StatusConflict {
		t.Fatalf("stale-epoch replicate status = %d, want 409", status)
	}
	// Previous-life sender: fenced by incarnation even with a fresh
	// epoch (re-send epoch 2 from incarnation 3 < known 7).
	if status, _ := post(data2, "http://peer", 3); status != http.StatusConflict {
		t.Fatalf("stale-incarnation replicate status = %d, want 409", status)
	}
	// The held replica is still epoch 2.
	if rep := n.getReplica(snap2.ID); rep == nil || rep.snap.Epoch != 2 {
		t.Fatalf("held replica wrong: %+v", rep)
	}
	// Corrupt bytes: fail closed, nothing installed.
	bad := append([]byte(nil), data2...)
	bad[len(bad)/2] ^= 0x40
	if status, _ := post(bad, "", 0); status != http.StatusBadRequest {
		t.Fatalf("corrupt replicate status = %d, want 400", status)
	}
}

// TestConcurrentReplicateAndCommit races epoch commits against
// snapshot replication and failover reads on one session (run under
// -race in CI): commits serialize correctly, every request succeeds,
// and the replica converges to the final epoch.
func TestConcurrentReplicateAndCommit(t *testing.T) {
	nodes, servers := startRing(t, 2, false)
	client := servers[0].Client()
	pl := testPlatform(t, 6, 206)
	resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
	owner, successor := ringOwnerOf(t, nodes, resp.ID)

	const commits = 8
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() { // serial commits through a (possibly non-owner) node
		defer wg.Done()
		for i := 0; i < commits; i++ {
			status, body, err := doJSONRaw(client, "POST", servers[0].URL+"/sessions/"+resp.ID+"/epoch",
				&EpochRequest{SpeedFactor: driftFactors(resp.K, 0.99)})
			if err != nil || status != http.StatusOK {
				errs <- fmt.Errorf("commit %d: status %d err %v body %s", i, status, err, body)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() { // concurrent PersistAll: Snapshot + replicate under commits
			defer wg.Done()
			for i := 0; i < 10; i++ {
				nodes[owner].PersistAll()
			}
		}()
	}
	wg.Add(1)
	go func() { // concurrent reads through both nodes
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for s := range servers {
				status, _, err := doJSONRaw(servers[s].Client(), "POST", servers[s].URL+"/sessions/"+resp.ID+"/query", nil)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("query via %d: status %d err %v", s, status, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Force one final fan-out so the replica reflects the last commit
	// even if the racing PersistAll shipped an older snapshot last.
	nodes[owner].PersistAll()
	rep := nodes[successor].getReplica(resp.ID)
	if rep == nil || rep.snap.Epoch != commits {
		t.Fatalf("replica epoch = %+v, want %d", rep, commits)
	}
}

// TestCommitIdempotency pins the commit dedup contract end to end: a
// retried commit (same idempotency tag) returns the recorded report
// byte-for-byte and does not advance the epoch; the record survives a
// snapshot round trip, so a replica promoted after the owner applied
// and replicated a commit answers its retry instead of re-applying.
func TestCommitIdempotency(t *testing.T) {
	handler := &lateHandler{}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	n := NewNodeWithConfig(NewServer(NewPool(8)), srv.URL, nil, nil, NodeConfig{})
	handler.set(n.Handler())
	client := srv.Client()

	pl := testPlatform(t, 6, 207)
	resp := ringCreate(t, client, srv.URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
	commit := func(cid string) (int, []byte) {
		body, _ := json.Marshal(&EpochRequest{SpeedFactor: driftFactors(resp.K, 0.9)})
		req, _ := http.NewRequest("POST", srv.URL+"/sessions/"+resp.ID+"/epoch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(commitIDHeader, cid)
		res, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		raw, _ := io.ReadAll(res.Body)
		return res.StatusCode, raw
	}

	status, first := commit("commit-A")
	if status != http.StatusOK {
		t.Fatalf("first commit: %d %s", status, first)
	}
	status, again := commit("commit-A") // retry: dedup, not re-apply
	if status != http.StatusOK || string(again) != string(first) {
		t.Fatalf("retried commit not deduped: %d\n%s\nvs\n%s", status, again, first)
	}
	var rep SolveReport
	if err := json.Unmarshal(again, &rep); err != nil || rep.Epoch != 1 {
		t.Fatalf("retry advanced epoch: %+v err %v", rep, err)
	}
	status, second := commit("commit-B") // a new commit applies normally
	if status != http.StatusOK {
		t.Fatalf("second commit: %d %s", status, second)
	}
	if err := json.Unmarshal(second, &rep); err != nil || rep.Epoch != 2 {
		t.Fatalf("new commit epoch: %+v err %v", rep, err)
	}

	// Client interleaving: a retry of commit-A arriving after commit-B
	// was applied must still be answered from the record (the dedup is
	// a bounded list, not last-commit-only), byte-identical to the
	// original response.
	status, late := commit("commit-A")
	if status != http.StatusOK || string(late) != string(first) {
		t.Fatalf("late retry after intervening commit not deduped: %d\n%s\nvs\n%s", status, late, first)
	}

	// The dedup record rides in the snapshot: a rebuilt session (the
	// promoted-replica path) answers the retry of commit-B from the
	// record, without applying it again.
	sess := n.srv.Pool().Get(resp.ID)
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.RecentCommits) != 2 {
		t.Fatalf("snapshot carries %d commit records, want 2", len(snap.RecentCommits))
	}
	restored, _, warm, err := RestoreSession(snap)
	if err != nil || !warm {
		t.Fatalf("restore: warm=%v err=%v", warm, err)
	}
	rrep, err := restored.EpochIdempotent(&EpochRequest{SpeedFactor: driftFactors(resp.K, 0.9)}, "commit-B")
	if err != nil || rrep.Epoch != 2 {
		t.Fatalf("restored retry: %+v err %v", rrep, err)
	}
	arep, err := restored.EpochIdempotent(&EpochRequest{SpeedFactor: driftFactors(resp.K, 0.9)}, "commit-A")
	if err != nil || arep.Epoch != 1 {
		t.Fatalf("restored retry of older commit: %+v err %v", arep, err)
	}
	if restored.Info().Epoch != 2 {
		t.Fatalf("restored retry advanced epoch to %d", restored.Info().Epoch)
	}
}

// TestCommitDedupDepth pins the bounded dedup record: entries are
// evicted oldest-first past commitDedupDepth, and surviving entries
// still answer retries with their recorded reports.
func TestCommitDedupDepth(t *testing.T) {
	pl := testPlatform(t, 6, 208)
	cfg, err := parseConfig(&CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newSession(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := commitDedupDepth + 3
	reports := make([]*SolveReport, total)
	drift := &EpochRequest{SpeedFactor: driftFactors(pl.K(), 0.99)}
	for i := 0; i < total; i++ {
		reports[i], err = sess.EpochIdempotent(drift, fmt.Sprintf("commit-%02d", i))
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if got := len(sess.state.Load().records); got != commitDedupDepth {
		t.Fatalf("record depth = %d, want %d", got, commitDedupDepth)
	}
	// The newest commitDedupDepth entries dedup (the retry returns the
	// recorded epoch and does not re-apply the drift).
	for i := total - commitDedupDepth; i < total; i++ {
		rep, err := sess.EpochIdempotent(drift, fmt.Sprintf("commit-%02d", i))
		if err != nil || rep.Epoch != reports[i].Epoch {
			t.Fatalf("retry of commit %d: epoch %v err %v, want %d", i, rep, err, reports[i].Epoch)
		}
	}
	if got := sess.Info().Epoch; got != total {
		t.Fatalf("retries advanced epoch to %d, want %d", got, total)
	}
}

// faultTransport injects seeded faults into the requests it sends,
// before they leave: while on, each request outside /cluster/ draws one
// Float64 — below fail it fails unsent (a dial that never happened, so
// any retry is safe), else below fail+delay it is sent after a second
// draw's uniform delay in (0, maxDelay]. The same seed and the same
// serial requests draw the same faults.
type faultTransport struct {
	fail, delay float64
	maxDelay    time.Duration
	on          atomic.Bool
	faults      atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

func (t *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.on.Load() || strings.HasPrefix(r.URL.Path, "/cluster/") {
		return http.DefaultTransport.RoundTrip(r)
	}
	t.mu.Lock()
	u, d := t.rng.Float64(), time.Duration(0)
	if u >= t.fail && u < t.fail+t.delay {
		d = time.Duration(1 + t.rng.Int63n(int64(t.maxDelay)))
	}
	t.mu.Unlock()
	if u < t.fail {
		t.faults.Add(1)
		return nil, fmt.Errorf("injected pre-send failure for %s", r.URL)
	}
	if d > 0 {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// e17Outcome is what one run (control or chaos) of the E17 workload
// produces.
type e17Outcome struct {
	// trace records the committed epoch each epoch-commit response
	// reported, in client order — a control-vs-chaos mismatch pinpoints
	// a lost or double-applied commit.
	trace []int
	final map[string][2]float64 // session ID -> {Value, LPBound} after the last commit

	faults                          int64 // injected pre-send failures
	retries, promotions, warm, cold uint64
	killed                          int // sessions the killed replica owned
}

// e17Run executes the E17 workload on a fresh three-replica ring with
// replication 2. Everything the client sends (platforms, drift
// factors, node choices) is drawn from fixed seeds, so the control and
// chaos runs issue byte-identical requests; chaotic additionally
// injects network faults during the traffic phase and kills the owner
// of the first session before the final commit+query round. Any
// request that does not come back with its expected status fails the
// test: the ring's own retries must absorb every fault.
func e17Run(t *testing.T, chaotic bool) e17Outcome {
	t.Helper()
	const ringSize, nSessions, epochs = 3, 2, 3
	// Faults hit forwarded session traffic only: the cluster control
	// plane (health, replicate, migrate, forget) stays clean so the
	// failure detector's timing, not fault luck, drives membership.
	// One transport for the whole ring is enough: the gates are
	// invariants, not per-node fault counts.
	tr := &faultTransport{fail: 0.08 + 0.07, delay: 0.15, maxDelay: 3 * time.Millisecond, rng: rand.New(rand.NewSource(11))}
	// Failure detection is compressed so the kill phase confirms the
	// death inside the commit-retry window — but the dead window stays
	// wide relative to scheduler/GC stalls on a loaded host: a false
	// death confirmation splits ownership between the resurrected
	// owner and its successor, and commits applied on the losing side
	// of that split are gone (the drift gate would catch it).
	nodes, servers := startRingCfg(t, ringSize, NodeConfig{
		Replication:  2,
		Heartbeat:    25 * time.Millisecond,
		SuspectAfter: 250 * time.Millisecond,
		DeadAfter:    time.Second,
		Transport:    tr,
	})
	tr.on.Store(chaotic)
	post := func(via int, path string, body, out any, wantStatus int) {
		t.Helper()
		doJSON(t, servers[via].Client(), "POST", servers[via].URL+path, body, out, wantStatus)
	}

	// Traffic phase: create every session, then drive epochs of
	// committed drift with interleaved queries, every commit through a
	// seeded-random ring node.
	pick := rand.New(rand.NewSource(12))
	out := e17Outcome{final: make(map[string][2]float64)}
	sessions := make([]CreateSessionResponse, nSessions)
	drifts := make([]*rand.Rand, nSessions)
	for i := range sessions {
		pl, payoffs := tightPlatform(t, 6, int64(110+i))
		post(pick.Intn(ringSize), "/sessions", &CreateSessionRequest{Platform: platformJSON(t, pl), Payoffs: payoffs}, &sessions[i], http.StatusCreated)
		drifts[i] = rand.New(rand.NewSource(int64(120 + i)))
	}
	commit := func(via, i int) {
		t.Helper()
		req := &EpochRequest{SpeedFactor: make([]float64, sessions[i].K), GatewayFactor: make([]float64, sessions[i].K)}
		for c := range req.SpeedFactor {
			req.SpeedFactor[c] = 0.9 + 0.2*drifts[i].Float64()
			req.GatewayFactor[c] = 0.9 + 0.2*drifts[i].Float64()
		}
		var rep SolveReport
		post(via, "/sessions/"+sessions[i].ID+"/epoch", req, &rep, http.StatusOK)
		out.trace = append(out.trace, rep.Epoch)
	}
	for e := 0; e < epochs; e++ {
		for i, s := range sessions {
			commit(pick.Intn(ringSize), i)
			// Query through every replica: at least two of the three
			// are forwards, so the fault schedule gets a dense stream
			// of data-path requests to bite on.
			for via := range servers {
				post(via, "/sessions/"+s.ID+"/query", nil, nil, http.StatusOK)
			}
		}
	}

	// Kill phase (chaos run only): stop injecting network faults, then
	// kill the owner of the first session outright and ask a survivor
	// for every orphaned session — read failover to the replica-holding
	// successor, promotion, warm answer.
	survivor := 0
	if chaotic {
		tr.on.Store(false)
		owner, _ := ringOwnerOf(t, nodes, sessions[0].ID)
		survivor = (owner + 1) % ringSize
		ring := nodes[owner].currentRing()
		var orphans []string
		for _, s := range sessions {
			if ring.Owner(s.ID) == nodes[owner].self {
				orphans = append(orphans, s.ID)
			}
		}
		out.killed = len(orphans)
		nodes[owner].Stop()
		servers[owner].Close()
		for _, id := range orphans {
			post(survivor, "/sessions/"+id+"/query", nil, nil, http.StatusOK)
		}
	}

	// Final round (both runs): one more committed epoch per session —
	// in the chaos run this exercises commit retry across the owner's
	// death — then the answer the drift gate compares.
	for i, s := range sessions {
		commit(survivor, i)
		var rep SolveReport
		post(survivor, "/sessions/"+s.ID+"/query", nil, &rep, http.StatusOK)
		out.final[s.ID] = [2]float64{rep.Value, rep.LPBound}
	}

	out.faults = tr.faults.Load()
	for _, n := range nodes {
		out.retries += n.retries.Value()
		out.promotions += n.promotions.Value()
		out.warm += n.warmRebuilds.Value()
		out.cold += n.coldRebuilds.Value()
	}
	return out
}

// TestE17ChaosRegression is the fault-tolerance gate of the replicated
// failure-aware ring, at unit-test scale: the same seeded workload runs
// twice over a three-replica in-process ring — a clean control, then
// with deterministic network faults (dropped, errored and delayed
// forwards) on all forwarded session traffic followed by a hard owner
// kill — and the
// chaos run must show zero failed client requests (e17Run fails on the
// first), zero cold rebuilds, the control's exact commit history and
// answers within 1e-9 of the control's. The gates are invariants, not
// counts: they hold no matter what the fault schedule did. Skipped
// under the race detector: the workload is timing-sensitive
// (failure-detector windows vs retry backoff) and the race build's
// slowdown makes it flaky without adding coverage — the tests above
// run the same machinery race-enabled at smaller scale.
func TestE17ChaosRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-sensitive failover windows; covered race-enabled by the smaller failover tests")
	}
	control := e17Run(t, false)
	chaotic := e17Run(t, true)
	t.Logf("chaos run: %d faults injected, %d retries, %d promotions (%d warm rebuilds), kill orphaned %d sessions",
		chaotic.faults, chaotic.retries, chaotic.promotions, chaotic.warm, chaotic.killed)

	if cold := control.cold + chaotic.cold; cold != 0 {
		t.Errorf("E17 gate: %d cold rebuilds, want 0", cold)
	}
	// The epoch traces must match exactly before the drift gate is even
	// meaningful: a mismatch means a commit was lost (applied on the
	// losing side of a false-death ownership split) or applied twice (a
	// retried commit that escaped the idempotency record) — state
	// divergence, not numeric drift.
	if !slices.Equal(chaotic.trace, control.trace) {
		t.Fatalf("E17 gate: commits reached epochs %v under faults, %v in control (lost or double-applied commit)", chaotic.trace, control.trace)
	}
	for id, want := range control.final {
		got, ok := chaotic.final[id]
		if !ok {
			t.Fatalf("session %s missing from the chaos run", id)
		}
		for j, name := range []string{"Value", "LPBound"} {
			if math.Abs(got[j]-want[j]) > tol*(1+math.Abs(want[j])) {
				t.Errorf("E17 gate: session %s %s drifted to %.12g under faults, control %.12g", id, name, got[j], want[j])
			}
		}
	}
	// The chaos run must actually have injected faults and exercised
	// the resilience machinery — an accidentally-clean run would pass
	// the gates vacuously.
	if chaotic.faults == 0 {
		t.Errorf("no faults injected: %+v", chaotic)
	}
	if chaotic.retries == 0 {
		t.Errorf("faults injected but nothing retried: %+v", chaotic)
	}
	if chaotic.killed < 1 || chaotic.promotions < uint64(chaotic.killed) {
		t.Errorf("kill phase did not promote: killed=%d promotions=%d", chaotic.killed, chaotic.promotions)
	}
	if chaotic.warm < chaotic.promotions {
		t.Errorf("promotions not warm: warm=%d promotions=%d", chaotic.warm, chaotic.promotions)
	}
}
