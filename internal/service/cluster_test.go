package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/platgen"
)

// stripVolatile removes the fields a report legitimately varies in
// across cache states — the cached/coalesced markers — and re-marshals
// with sorted keys, so two answers can be compared byte for byte on
// everything else: values, bounds, allocations, epoch.
func stripVolatile(t testing.TB, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("stripVolatile: %v\n%s", err, raw)
	}
	delete(m, "cached")
	delete(m, "coalesced")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func identityFactors(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func driftFactors(n int, f float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f
	}
	return out
}

// TestSessionSnapshotRestoreWarm is the portability contract at the
// session layer: a session serialized after committed drift and
// rebuilt from the snapshot (as replica B would) answers the committed
// query with the live session's bytes, with zero cold solves. On lprg,
// lprr and bnb sessions over a K = 8 platform after uniform drift, and
// on K = 20 sessions drawn as the benchmark draws ring_adapt's after
// each of 12 commits of random drift (every factor in U[0.8, 1.2]),
// tagged and untagged in turn, so both ways a snapshot carries the
// answer are restored. The rebuild's own solve reaches the committed
// basis without the owner's pivots, and on those platforms its floats
// differ from the owner's in the last bits: a rebuild that published its
// own answer fails here.
func TestSessionSnapshotRestoreWarm(t *testing.T) {
	check := func(t *testing.T, s *Session) {
		t.Helper()
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		wire, err := snap.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		decoded, err := cluster.DecodeSnapshot(wire)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		restored, rep, warm, err := RestoreSession(decoded)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if !warm {
			t.Fatal("rebuild was not warm")
		}
		if st := restored.Stats().Solver; st.ColdSolves != 0 || st.ColdFallbacks != 0 {
			t.Fatalf("rebuilt session cold-solved: %+v", st)
		}
		if restored.id != s.id || restored.Info().Epoch != s.Info().Epoch {
			t.Fatalf("identity drifted: id %s vs %s, epoch %d vs %d", restored.id, s.id, restored.Info().Epoch, s.Info().Epoch)
		}
		_, live, _ := s.query()
		_, got, _ := restored.query()
		if !bytes.Equal(got.wire(), live.wire()) {
			t.Fatalf("epoch %d: the restored query differs from the live one:\n%s\nvs\n%s", s.Info().Epoch, got.wire(), live.wire())
		}
		if !bytes.Equal(mustEncode(t, rep), mustEncode(t, &live.rep)) {
			t.Fatalf("epoch %d: RestoreSession returned another report than the committed one", s.Info().Epoch)
		}
	}
	for _, heur := range []string{"lprg", "lprr", "bnb"} {
		t.Run(heur, func(t *testing.T) {
			pl := testPlatform(t, 8, 61)
			cfg, err := parseConfig(&CreateSessionRequest{Heuristic: heur, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSession(pl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Commit real drift so the snapshot carries capacities that
			// differ from the creation ones plus a nonzero epoch.
			K, L := s.state.Load().pr.Platform.K(), len(s.state.Load().pr.Platform.Links)
			for i := 0; i < 2; i++ {
				if _, err := s.Epoch(&EpochRequest{
					SpeedFactor:   driftFactors(K, 0.93),
					GatewayFactor: driftFactors(K, 1.04),
					LinkFactor:    driftFactors(L, 0.97),
				}); err != nil {
					t.Fatalf("epoch: %v", err)
				}
			}
			check(t, s)
		})
	}
	const K = 20
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("ring_adapt-%d", seed), func(t *testing.T) {
			pl, err := platgen.Generate(platgen.Params{K: K, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5},
				rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			payoffs := make([]float64, K)
			for i := range payoffs {
				payoffs[i] = float64(1 + i%3)
			}
			cfg, err := parseConfig(&CreateSessionRequest{Heuristic: "lprg", Payoffs: payoffs})
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSession(pl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 211))
			factors := func(n int) []float64 {
				f := make([]float64, n)
				for i := range f {
					f[i] = 0.8 + 0.4*rng.Float64()
				}
				return f
			}
			for e := 0; e < 12; e++ {
				tag := ""
				if e%2 == 0 {
					tag = fmt.Sprintf("c%d", e)
				}
				if _, err := s.EpochIdempotent(&EpochRequest{SpeedFactor: factors(K), GatewayFactor: factors(K)}, tag); err != nil {
					t.Fatal(err)
				}
				check(t, s)
			}
		})
	}
}

// TestAnswerCacheCorrectness pins the cache guard: a cached answer
// equals a fresh warm solve of the same committed state at 1e-9, and
// repeat hits are byte-identical to the answer that populated them.
func TestAnswerCacheCorrectness(t *testing.T) {
	pl := testPlatform(t, 8, 62)
	ts, _ := newTestServer(t, 4)
	resp := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, pl)}, http.StatusCreated)
	base := ts.URL + "/sessions/" + resp.ID

	_, q1, err := doJSONRaw(ts.Client(), "POST", base+"/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep1, rep2 SolveReport
	_, q2, err := doJSONRaw(ts.Client(), "POST", base+"/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(q1, &rep1) //nolint:errcheck
	json.Unmarshal(q2, &rep2) //nolint:errcheck
	if !rep1.Cached || !rep2.Cached {
		// The creation solve populated the cache, so both repeat
		// queries must hit.
		t.Fatalf("repeat queries not cached: %v %v", rep1.Cached, rep2.Cached)
	}
	if string(q1) != string(q2) {
		t.Fatalf("two cache hits differ byte-wise:\n%s\nvs\n%s", q1, q2)
	}

	// An identity epoch leaves the platform bit-identical but rotates
	// the state digest, forcing the next query to re-solve warm: the
	// fresh answer must equal the cached one at 1e-9.
	K, L := pl.K(), len(pl.Links)
	var erep SolveReport
	doJSON(t, ts.Client(), "POST", base+"/epoch", &EpochRequest{
		SpeedFactor:   identityFactors(K),
		GatewayFactor: identityFactors(K),
		LinkFactor:    identityFactors(L),
	}, &erep, http.StatusOK)
	var fresh SolveReport
	_, f1, err := doJSONRaw(ts.Client(), "POST", base+"/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(f1, &fresh) //nolint:errcheck
	if fresh.Epoch != 1 {
		t.Fatalf("post-epoch query answered epoch %d, want 1", fresh.Epoch)
	}
	if math.Abs(fresh.Value-rep1.Value) > tol*(1+math.Abs(rep1.Value)) {
		t.Fatalf("cached value %g vs fresh warm solve %g (beyond 1e-9)", rep1.Value, fresh.Value)
	}
	if math.Abs(fresh.LPBound-rep1.LPBound) > tol*(1+math.Abs(rep1.LPBound)) {
		t.Fatalf("cached bound %g vs fresh %g", rep1.LPBound, fresh.LPBound)
	}

	// What-if caching: first solve is fresh, the repeat is a hit and
	// byte-identical modulo the cached flag.
	wi := &WhatIfRequest{Speeds: []ClusterValue{{Cluster: 0, Value: 5}}}
	var w1, w2 SolveReport
	_, w1raw, err := doJSONRaw(ts.Client(), "POST", base+"/whatif", wi)
	if err != nil {
		t.Fatal(err)
	}
	_, w2raw, err := doJSONRaw(ts.Client(), "POST", base+"/whatif", wi)
	if err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(w1raw, &w1) //nolint:errcheck
	json.Unmarshal(w2raw, &w2) //nolint:errcheck
	if w1.Cached {
		t.Fatalf("first what-if after commit claimed cached")
	}
	if !w2.Cached {
		t.Fatalf("repeat what-if not cached")
	}
	if stripVolatile(t, w1raw) != stripVolatile(t, w2raw) {
		t.Fatalf("cached what-if differs from the solve that populated it:\n%s\nvs\n%s", w1raw, w2raw)
	}
}

// TestWhatIfBoundsKeyAsRelaxed: a β box implies the relaxation, so a
// boxed what-if spelled with and without "relax": true is one question —
// whichever spelling comes second is an answer-cache hit on the entry the
// first filed, as the two spellings coalesce inside a batch.
func TestWhatIfBoundsKeyAsRelaxed(t *testing.T) {
	pl := testPlatform(t, 8, 62)
	ts, pool := newTestServer(t, 4)
	resp := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, pl)}, http.StatusCreated)
	base := ts.URL + "/sessions/" + resp.ID
	routes := pool.Get(resp.ID).model.BetaVars()
	if len(routes) < 2 {
		t.Fatalf("platform has %d β routes", len(routes))
	}
	for i, relaxFirst := range []bool{false, true} {
		box := []RouteBounds{{From: routes[i].K, To: routes[i].L, Lb: 0, Ub: 1}}
		first := &WhatIfRequest{Bounds: box, Relax: relaxFirst}
		second := &WhatIfRequest{Bounds: box, Relax: !relaxFirst}
		var w1, w2 SolveReport
		_, raw1, err := doJSONRaw(ts.Client(), "POST", base+"/whatif", first)
		if err != nil {
			t.Fatal(err)
		}
		_, raw2, err := doJSONRaw(ts.Client(), "POST", base+"/whatif", second)
		if err != nil {
			t.Fatal(err)
		}
		json.Unmarshal(raw1, &w1) //nolint:errcheck
		json.Unmarshal(raw2, &w2) //nolint:errcheck
		if w1.Cached || !w1.Relaxed {
			t.Fatalf("relax %v first: cached %v, relaxed %v", relaxFirst, w1.Cached, w1.Relaxed)
		}
		if !w2.Cached {
			t.Fatalf("relax %v second: the other spelling of the same box was solved again", !relaxFirst)
		}
		if stripVolatile(t, raw1) != stripVolatile(t, raw2) {
			t.Fatalf("the two spellings answer differently:\n%s\nvs\n%s", raw1, raw2)
		}
	}
}

// TestAnswerCacheInvalidationOnEpoch pins that a stale hit after a
// commit is impossible: answers cached before an epoch commit must
// never be served after it, for the query and the what-if paths both.
func TestAnswerCacheInvalidationOnEpoch(t *testing.T) {
	pl := testPlatform(t, 8, 63)
	ts, _ := newTestServer(t, 4)
	resp := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, pl)}, http.StatusCreated)
	base := ts.URL + "/sessions/" + resp.ID
	K, L := pl.K(), len(pl.Links)

	// Populate the cache at epoch 0.
	wi := &WhatIfRequest{Gateways: []ClusterValue{{Cluster: 1, Value: 100}}}
	var w0, q0 SolveReport
	doJSON(t, ts.Client(), "POST", base+"/whatif", wi, &w0, http.StatusOK)
	doJSON(t, ts.Client(), "POST", base+"/query", nil, &q0, http.StatusOK)

	// Commit real drift.
	var erep SolveReport
	doJSON(t, ts.Client(), "POST", base+"/epoch", &EpochRequest{
		SpeedFactor:   driftFactors(K, 0.8),
		GatewayFactor: driftFactors(K, 0.9),
		LinkFactor:    driftFactors(L, 0.85),
	}, &erep, http.StatusOK)

	// The commit publishes the committed answer itself — and a query
	// must read the POST-commit answer, never the stale one.
	var q1 SolveReport
	doJSON(t, ts.Client(), "POST", base+"/query", nil, &q1, http.StatusOK)
	if q1.Epoch != 1 {
		t.Fatalf("post-commit query epoch %d, want 1 (stale cache hit?)", q1.Epoch)
	}
	if math.Abs(q1.Value-erep.Value) > tol*(1+math.Abs(erep.Value)) {
		t.Fatalf("post-commit query %g does not match the commit answer %g", q1.Value, erep.Value)
	}

	// The identical what-if must re-solve against the new state: its
	// epoch moves, and the first one may not claim a cache hit.
	var w1 SolveReport
	doJSON(t, ts.Client(), "POST", base+"/whatif", wi, &w1, http.StatusOK)
	if w1.Cached {
		t.Fatalf("first what-if after commit served from cache (stale hit)")
	}
	if w1.Epoch != 1 {
		t.Fatalf("post-commit what-if epoch %d, want 1", w1.Epoch)
	}
	if w0.Value == w1.Value && q0.Value == q1.Value {
		t.Fatalf("real drift changed nothing (test platform degenerate; pick another seed)")
	}
}

// lateHandler lets an httptest server start before the node handler
// that will serve it exists (the node needs the server's URL).
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// startRing boots n ring nodes on httptest servers, each with its own
// pool and snapshot store, fully meshed.
func startRing(t *testing.T, count int, withStores bool) ([]*Node, []*httptest.Server) {
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
		var store *cluster.Store
		if withStores {
			var err error
			store, err = cluster.NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = NewNodeWithConfig(NewServer(NewPool(16)), urls[i], urls, store, NodeConfig{})
		handlers[i].set(nodes[i].Handler())
	}
	return nodes, servers
}

// ringCreate creates a session through the given node, accepting the
// 201 a create answers with (forwarded or local).
func ringCreate(t *testing.T, client *http.Client, url string, req *CreateSessionRequest) CreateSessionResponse {
	t.Helper()
	status, raw, err := doJSONRaw(client, "POST", url+"/sessions", req)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusCreated {
		t.Fatalf("POST %s/sessions: status %d; body: %s", url, status, raw)
	}
	var resp CreateSessionResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decoding create response: %v\n%s", err, raw)
	}
	return resp
}

// TestRingRoutingAndForwarding boots a 3-node ring, creates sessions
// for several platforms through one node only, and checks that every
// session lands on its ring owner, that queries through a non-owner
// are forwarded and answer identically, and that /metrics reports the
// ring and the forwarding.
func TestRingRoutingAndForwarding(t *testing.T) {
	nodes, servers := startRing(t, 3, false)
	client := servers[0].Client()

	const nPlatforms = 6
	ids := make([]string, 0, nPlatforms)
	for i := 0; i < nPlatforms; i++ {
		pl := testPlatform(t, 6, int64(70+i))
		resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
		ids = append(ids, resp.ID)
	}

	ring := nodes[0].currentRing()
	ownedElsewhere := 0
	for _, id := range ids {
		owner := ring.Owner(id)
		if owner != nodes[0].self {
			ownedElsewhere++
		}
		// The session must live exactly on its owner.
		for i, n := range nodes {
			var infos []SessionInfo
			if err := doJSONE(servers[i].Client(), "GET", servers[i].URL+"/sessions", nil, &infos); err != nil {
				t.Fatal(err)
			}
			has := false
			for _, info := range infos {
				if info.ID == id {
					has = true
				}
			}
			if want := n.self == owner; has != want {
				t.Fatalf("session %s: present on %s = %v, owner is %s", id, n.self, has, owner)
			}
		}
	}
	if ownedElsewhere == 0 {
		t.Fatalf("all %d sessions hashed to the creating node (ring not spreading)", nPlatforms)
	}
	if nodes[0].forwarded.Value() == 0 {
		t.Fatalf("creating node forwarded nothing despite non-owned sessions")
	}

	// Query one non-owned session through every node: identical bytes
	// (repeat committed queries are cache hits, so even the stats
	// snapshot is frozen).
	var target string
	for _, id := range ids {
		if ring.Owner(id) != nodes[0].self {
			target = id
			break
		}
	}
	var answers []string
	for i := range servers {
		_, raw, err := doJSONRaw(servers[i].Client(), "POST", servers[i].URL+"/sessions/"+target+"/query", nil)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, stripVolatile(t, raw))
	}
	if answers[0] != answers[1] || answers[1] != answers[2] {
		t.Fatalf("the three nodes answer the same session differently:\n%s\n%s\n%s", answers[0], answers[1], answers[2])
	}

	if got := nodes[0].Members(); len(got) != 3 {
		t.Fatalf("ring members = %v, want 3", got)
	}
	exp := scrape(t, client, servers[0].URL+"/metrics")
	if got := metricValue(t, exp, `schedd_cluster_peers{state="alive"}`); got != 2 {
		t.Fatalf("alive peers = %v, want 2", got)
	}
	if metricValue(t, exp, "schedd_cluster_forwarded_total") == 0 {
		t.Fatalf("/metrics does not report forwarding")
	}
}

// TestRingMembershipChangeMigratesWarm starts a 2-node ring, loads it
// with drifted sessions, then joins a third node: every session whose
// ownership moved must migrate (serialize → transfer → warm rebuild)
// and answer byte-identically afterwards, with zero cold rebuilds
// anywhere.
func TestRingMembershipChangeMigratesWarm(t *testing.T) {
	handlers := make([]*lateHandler, 3)
	servers := make([]*httptest.Server, 3)
	for i := range handlers {
		handlers[i] = &lateHandler{}
		servers[i] = httptest.NewServer(handlers[i])
		defer servers[i].Close()
	}
	stores := make([]*cluster.Store, 3)
	for i := range stores {
		st, err := cluster.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	// Nodes 0 and 1 form the initial ring; node 2 exists but is not a
	// member yet.
	nodes := make([]*Node, 3)
	nodes[0] = NewNodeWithConfig(NewServer(NewPool(16)), servers[0].URL, []string{servers[1].URL}, stores[0], NodeConfig{})
	nodes[1] = NewNodeWithConfig(NewServer(NewPool(16)), servers[1].URL, []string{servers[0].URL}, stores[1], NodeConfig{})
	nodes[2] = NewNodeWithConfig(NewServer(NewPool(16)), servers[2].URL, nil, stores[2], NodeConfig{})
	for i := range nodes {
		handlers[i].set(nodes[i].Handler())
	}

	// All three URLs exist already, so the post-join ring is known
	// before any session is: keep drawing platforms until at least two
	// sessions will move to the joiner and at least one will stay —
	// httptest's random ports would otherwise leave the join with
	// nothing to migrate one run in ten. Sessions that would stay are
	// capped, so the ring never holds more than six.
	after := cluster.NewRing([]string{servers[0].URL, servers[1].URL, servers[2].URL}, 0)
	cfg, err := parseConfig(&CreateSessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	client := servers[0].Client()
	var ids []string
	pre := make(map[string]string)
	const maxDraws, maxStaying = 200, 4
	for draw, moving, staying := 0, 0, 0; moving < 2 || staying < 1; draw++ {
		if draw == maxDraws {
			t.Fatalf("%d platforms drawn, %d hash to the joiner and %d do not (ring not spreading)", draw, moving, staying)
		}
		pl := testPlatform(t, 6, int64(80+draw))
		if after.Owner(sessionID(pl.Fingerprint(), cfg)) == servers[2].URL {
			moving++
		} else if staying < maxStaying {
			staying++
		} else {
			continue
		}
		resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
		// Commit drift so migrated state is non-trivial.
		var erep SolveReport
		if err := doJSONE(client, "POST", servers[0].URL+"/sessions/"+resp.ID+"/epoch", &EpochRequest{
			SpeedFactor:   driftFactors(resp.K, 0.9),
			GatewayFactor: driftFactors(resp.K, 1.05),
		}, &erep); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
		_, raw, err := doJSONRaw(client, "POST", servers[0].URL+"/sessions/"+resp.ID+"/query", nil)
		if err != nil {
			t.Fatal(err)
		}
		pre[resp.ID] = stripVolatile(t, raw)
	}

	if err := nodes[2].Join(servers[0].URL); err != nil {
		t.Fatalf("join: %v", err)
	}
	for i, n := range nodes {
		if got := len(n.Members()); got != 3 {
			t.Fatalf("node %d sees %d members after join, want 3", i, got)
		}
	}

	ring := nodes[2].currentRing()
	moved := 0
	for _, id := range ids {
		if ring.Owner(id) == nodes[2].self {
			moved++
		}
	}
	if moved < 2 || moved == len(ids) {
		t.Fatalf("%d of %d sessions hash to the joiner, want at least 2 and not all (the nodes' ring differs from cluster.NewRing over the same members)", moved, len(ids))
	}
	var totalMigrations, totalWarm, totalCold uint64
	for _, n := range nodes {
		totalMigrations += n.migrations.Value()
		totalWarm += n.warmRebuilds.Value()
		totalCold += n.coldRebuilds.Value()
	}
	if totalMigrations != uint64(moved) {
		t.Fatalf("migrations = %d, want %d (one per moved session)", totalMigrations, moved)
	}
	if totalWarm != uint64(moved) || totalCold != 0 {
		t.Fatalf("rebuilds warm=%d cold=%d, want %d/0", totalWarm, totalCold, moved)
	}

	// Every session answers byte-identically post-migration, queried
	// through the original node (which forwards to the new owner).
	for _, id := range ids {
		_, raw, err := doJSONRaw(client, "POST", servers[0].URL+"/sessions/"+id+"/query", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := stripVolatile(t, raw); got != pre[id] {
			t.Fatalf("session %s answers differently after migration:\n%s\nvs\n%s", id, got, pre[id])
		}
		// The session must exist on exactly its (new) owner.
		owner := ring.Owner(id)
		for i, n := range nodes {
			var infos []SessionInfo
			if err := doJSONE(servers[i].Client(), "GET", servers[i].URL+"/sessions", nil, &infos); err != nil {
				t.Fatal(err)
			}
			has := false
			for _, info := range infos {
				if info.ID == id {
					has = true
				}
			}
			if want := n.self == owner; has != want {
				t.Fatalf("post-join session %s: present on node %d = %v, owner %s", id, i, has, owner)
			}
			if _, lag := n.lastFanout.Load(id); lag && n.self != owner {
				t.Fatalf("node %d still keeps a fan-out record for session %s, which migrated to %s", i, id, owner)
			}
		}
	}
}

// TestNodeRecoverFromStore simulates a crash at the store layer: a
// node persists sessions through commits, a fresh node over the same
// store recovers them all warm, and the recovered answers match.
func TestNodeRecoverFromStore(t *testing.T) {
	dir := t.TempDir()
	store, err := cluster.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	n1 := NewNodeWithConfig(NewServer(NewPool(8)), "http://a", nil, store, NodeConfig{})
	pl := testPlatform(t, 8, 90)
	sess, created, err := n1.srv.Pool().GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, pl)})
	if err != nil || !created {
		t.Fatalf("create: %v created=%v", err, created)
	}
	K, L := pl.K(), len(pl.Links)
	if _, err := sess.Epoch(&EpochRequest{
		SpeedFactor:   driftFactors(K, 0.88),
		GatewayFactor: driftFactors(K, 1.07),
		LinkFactor:    driftFactors(L, 0.95),
	}); err != nil {
		t.Fatal(err)
	}
	before, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}
	beforeRaw, _ := json.Marshal(before)

	// "Crash": a brand-new node over the same snapshot dir.
	store2, err := cluster.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	n2 := NewNodeWithConfig(NewServer(NewPool(8)), "http://a", nil, store2, NodeConfig{})
	warm, cold, skipped, err := n2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if warm != 1 || cold != 0 || skipped != 0 {
		t.Fatalf("recover: warm=%d cold=%d skipped=%d, want 1/0/0", warm, cold, skipped)
	}
	recovered := n2.srv.Pool().Get(sess.id)
	if recovered == nil {
		t.Fatalf("recovered session not in pool")
	}
	after, err := recovered.Query()
	if err != nil {
		t.Fatal(err)
	}
	afterRaw, _ := json.Marshal(after)
	if got, want := stripVolatile(t, afterRaw), stripVolatile(t, beforeRaw); got != want {
		t.Fatalf("post-recovery answer differs:\n%s\nvs\n%s", got, want)
	}
	if w, c, b := n2.warmRebuilds.Value(), n2.coldRebuilds.Value(), n2.snapshotBytes.Value(); w != 1 || c != 0 || b == 0 {
		t.Fatalf("node counters wrong after recovery: warm=%d cold=%d snapshotBytes=%d", w, c, b)
	}
}

// TestRecoverSkipsForeignVersion: a store written partly by a format-2
// build does not fail start-up. The good current-format file recovers warm;
// a .snap file holding a well-formed format-2 document (exactly what
// the last format-2 build's Encode produced) is counted in skipped, as
// any undecodable file is; a leftover .snap.json is not read at all and
// goes with the next sweep. Format 2 is refused, never migrated.
func TestRecoverSkipsForeignVersion(t *testing.T) {
	const formatTwo = `{"version":2,"id":"deadbeefcafe0123456789ab","fingerprint":"fp:test-platform","heuristic":"lprg","epoch":1,"platform":{"hosts":[]},"basisCols":[0,1],"basisUpper":[0],"basisNcols":2,"recentCommits":[{"id":"commit-00","report":{"value":40.5,"epoch":1}}],"checksum":"0936f1714c924f32c92057dee3cc2669472850e3127ad85847fa0c1921540363"}`
	dir := t.TempDir()
	store, err := cluster.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	n1 := NewNodeWithConfig(NewServer(NewPool(8)), "http://a", nil, store, NodeConfig{})
	sess, created, err := n1.srv.Pool().GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 91))})
	if err != nil || !created {
		t.Fatalf("create: %v created=%v", err, created)
	}
	if _, err := os.Stat(filepath.Join(dir, sess.id+".snap")); err != nil {
		t.Fatalf("the create persisted no format-%d file: %v", cluster.SnapshotVersion, err)
	}
	stale := filepath.Join(dir, sess.id+".snap.json")
	for _, path := range []string{filepath.Join(dir, "deadbeefcafe0123456789ab.snap"), stale} {
		if err := os.WriteFile(path, []byte(formatTwo), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	n2 := NewNodeWithConfig(NewServer(NewPool(8)), "http://a", nil, store, NodeConfig{})
	warm, cold, skipped, err := n2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if warm != 1 || cold != 0 || skipped != 1 {
		t.Fatalf("recover: warm=%d cold=%d skipped=%d, want 1/0/1", warm, cold, skipped)
	}
	if n2.srv.Pool().Get(sess.id) == nil || n2.srv.Pool().Get("deadbeefcafe0123456789ab") != nil {
		t.Fatal("recovery installed the wrong sessions")
	}
	n2.PersistAll()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("the leftover format-2 file survived a persistence tick: %v", err)
	}
}
