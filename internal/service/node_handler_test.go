package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// oneMemberNode is a ring of one over pool: the stack schedd serves
// through, standalone included.
func oneMemberNode(pool *Pool) http.Handler {
	return NewNodeWithConfig(NewServer(pool), "http://self", nil, nil, NodeConfig{}).Handler()
}

// serveReq serves one request through h.
func serveReq(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// TestOneMemberNodeAnswersAsServer: a request answers with the same
// status and the same body through Server.Handler and through a
// one-member Node.Handler, each over its own pool — valid requests on
// every session route, and every refusal of TestCreateRejectsBadRequests
// and TestRequestBodiesDecodeStrictly. Since the router decodes a create
// to key it and serves it from that decode, a create it refuses is
// refused at the entry, as the handler would refuse it.
func TestOneMemberNodeAnswersAsServer(t *testing.T) {
	const K = 4
	pl := testPlatform(t, K, 1)
	create := func(extra string) []byte {
		return []byte(`{"platform":` + string(platformJSON(t, pl)) + extra + `}`)
	}
	server, node := NewServer(NewPool(4)).Handler(), oneMemberNode(NewPool(4))
	same := func(method, path string, body []byte, want int) {
		t.Helper()
		a, b := serveReq(server, method, path, body), serveReq(node, method, path, body)
		if a.Code != b.Code || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Fatalf("%s %s %.120s:\nServer.Handler %d %s\nNode.Handler   %d %s", method, path, body, a.Code, a.Body, b.Code, b.Body)
		}
		if a.Code != want || a.Code >= 400 && !bytes.Contains(a.Body.Bytes(), []byte(`"error"`)) {
			t.Fatalf("%s %s %.120s: status %d, want %d: %s", method, path, body, a.Code, want, a.Body)
		}
	}
	for _, body := range []string{
		`{}`,
		`{"platform":{"routers":-1}}`,
		`{"platform":{"routers":1,"clusters":[{"name":"a","speed":-5,"gateway":1,"router":0}]}}`,
		`{"platform":{"routers":"x"}}`,
		`{"platform":[1,2`,
		string(create(`,"objective":"median"`)),
		string(create(`,"heuristic":"magic"`)),
		string(create(`,"payoffs":[1,2]`)),
		string(create(`,"payoffs":[1e308,1e308,1e308,1e308]`)),
		string(create(`,"bogus":1`)),
		string(create("")) + " trailing garbage",
		string(create("")) + "\n]",
		string(create("")) + string(create("")),
	} {
		same("POST", "/sessions", []byte(body), http.StatusBadRequest)
	}
	same("POST", "/sessions", create(""), http.StatusCreated)
	same("POST", "/sessions", create(" \r\n"), http.StatusOK)
	var created CreateSessionResponse
	if err := json.Unmarshal(serveReq(server, "POST", "/sessions", create("")).Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	base := "/sessions/" + created.ID
	// An oversize body is refused from its declared length, unread.
	for _, path := range []string{"/sessions", base + "/whatif", base + "/epoch"} {
		a, b := httptest.NewRecorder(), httptest.NewRecorder()
		for _, hr := range []struct {
			h   http.Handler
			rec *httptest.ResponseRecorder
		}{{server, a}, {node, b}} {
			req := httptest.NewRequest("POST", path, strings.NewReader("{}"))
			req.ContentLength = maxBodyBytes + 1
			hr.h.ServeHTTP(hr.rec, req)
		}
		if a.Code != http.StatusBadRequest || a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("oversize POST %s: Server.Handler %d %s, Node.Handler %d %s", path, a.Code, a.Body, b.Code, b.Body)
		}
	}

	// A path that cleaning would change reaches the route table and its
	// redirect on either stack, a session path included.
	for _, path := range []string{"/sessions//" + created.ID + "/query", "/sessions/./x", base + "/../stats", "/sessions//x"} {
		a, b := serveReq(server, "POST", path, nil), serveReq(node, "POST", path, nil)
		if a.Code != b.Code || a.Header().Get("Location") != b.Header().Get("Location") {
			t.Fatalf("POST %s: Server.Handler %d to %q, Node.Handler %d to %q", path, a.Code, a.Header().Get("Location"), b.Code, b.Header().Get("Location"))
		}
		if a.Code != http.StatusMovedPermanently {
			t.Fatalf("POST %s: status %d, want the table's redirect", path, a.Code)
		}
	}

	// A path off the session grammar is no session request: the route
	// table's plain 404 on either stack, never a create.
	for _, row := range []struct{ method, path string }{
		{"POST", "/sessions/"}, {"GET", "/sessions/"}, {"POST", "/sessionsx"}, {"GET", "/sessionsx/query"},
	} {
		a, b := serveReq(server, row.method, row.path, nil), serveReq(node, row.method, row.path, nil)
		if a.Code != http.StatusNotFound || a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("%s %s: Server.Handler %d %s, Node.Handler %d %s", row.method, row.path, a.Code, a.Body, b.Code, b.Body)
		}
	}

	const ok, bad, none = http.StatusOK, http.StatusBadRequest, http.StatusNotFound
	for _, row := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", base + "/query", "", ok},
		{"GET", base, "", ok},
		{"GET", base + "/platform", "", ok},
		{"GET", "/sessions", "", ok},
		{"POST", "/sessions/nope/query", "", none},
		{"POST", base + "/whatif", `{"speeds":[{"cluster":99,"value":10}]}`, bad},
		{"POST", base + "/whatif", `{"gateways":[{"cluster":-1,"value":10}]}`, bad},
		{"POST", base + "/whatif", `{"links":[{"link":9999,"maxConnect":1}]}`, bad},
		{"POST", base + "/whatif", `{"speeds":[{"cluster":0,"value":-4}]}`, bad},
		{"POST", base + "/whatif", `{"bounds":[{"from":0,"to":0,"lb":1,"ub":2}]}`, bad},
		{"POST", base + "/whatif", `{"links":[{"link":0,"maxConnect":1e300}]}`, bad},
		{"POST", base + "/whatif", `{"speeds":[{"cluster":0,"value":1e308},{"cluster":1,"value":1e308}],"relax":true}`, bad},
		{"POST", base + "/whatif", `{"relax":true}`, ok},
		{"POST", base + "/whatif", `{"RELAX":true}`, ok},
		{"POST", base + "/whatif", `{"speeds":[{"cluster":0,"value":50,"extra":1}]}`, bad},
		{"POST", base + "/whatif", `{"relax":true} trailing garbage`, bad},
		{"POST", base + "/whatif", `{"relax":true}{"relax":true}`, bad},
		{"POST", base + "/whatif", `{"speeds":[{"cluster":1.0,"value":50}]}`, bad},
		{"POST", base + "/whatif/batch", `{"queries":[{"relax":true},{"gateways":[{"cluster":1,"value":90}],"relax":true}]}`, ok},
		{"POST", base + "/whatif/batch", `{"queries":[{"relax":true,"nope":1}]}`, bad},
		{"POST", base + "/whatif/batch", `{"queries":null}`, bad},
		{"POST", base + "/whatif/batch", `{"queries":[{"relax":true}],"workers":65}`, bad},
		{"POST", base + "/epoch", `{"speedFactor":[1,1]}`, bad},
		{"POST", base + "/epoch", `{"gatewayFactor":[1,-1,1,1]}`, bad},
		{"POST", base + "/epoch", `{"speedFactor":[1e306,1e306,1e306,1e306]}`, bad},
		{"POST", base + "/epoch", `{"speedFactor":[0.9,0.9,0.9,0.9],"bogus":[]}`, bad},
		{"POST", base + "/epoch", `{"speedFactor":[0.9,0.9,0.9,0.9]} ]`, bad},
		{"POST", base + "/epoch", `{"speedFactor":[0.9,0.9,0.9,0.9]}`, ok},
		{"POST", base + "/query", "", ok},
		{"POST", base + "/whatif", `{"relax":true}`, ok},
		{"DELETE", base, "", ok},
		{"DELETE", base, "", none},
	} {
		same(row.method, row.path, []byte(row.body), row.want)
	}
}

// TestRouterAddsNoBodyCost holds a one-member Node.Handler — how every
// schedd serves — to Server.Handler on the same pool. The router only
// decides and forwards: a request served here reaches its handler
// unread, and a create is decoded once. So, measured over the same
// requests:
//   - a cached what-if hit costs at most 1 object more (measured 1: the
//     ring lookup; 6 when the node's route table matched every session
//     path against its catch-all pattern, 9 when the router copied every
//     POST body);
//   - a 64-query batch on a body of at least 6 KiB costs per-op bytes
//     within 1 KiB (8.4 KB more when the router copied the body);
//   - a repeated create at K = 5, 20 and 40 costs at most 16 objects
//     more (about twice as many when the router decoded the platform
//     a second time to key it).
func TestRouterAddsNoBodyCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what is put back")
	}
	type cost struct {
		allocs float64
		bytes  uint64
	}
	// measure is the least one request costs over five rounds of runs: a
	// pooled buffer the collector dropped costs a round, not the request.
	measure := func(runs int, h http.Handler, path string, body []byte, want int) cost {
		t.Helper()
		op := func() {
			if rec := serveReq(h, "POST", path, body); rec.Code != want {
				t.Fatalf("POST %s: status %d, want %d: %s", path, rec.Code, want, rec.Body)
			}
		}
		best := cost{math.Inf(1), math.MaxUint64}
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, op)
			runtime.ReadMemStats(&after)
			best = cost{min(best.allocs, allocs), min(best.bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(runs+1))}
		}
		return best
	}
	stacks := func(pool *Pool) (server, node http.Handler) {
		return NewServer(pool).Handler(), oneMemberNode(pool)
	}

	pool := NewPool(4)
	sess, _, err := pool.GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 20, 96))})
	if err != nil {
		t.Fatal(err)
	}
	server, node := stacks(pool)
	base := "/sessions/" + sess.id
	hit := []byte(`{"speeds":[{"cluster":3,"value":40}],"relax":true}`)
	s, n := measure(100, server, base+"/whatif", hit, http.StatusOK), measure(100, node, base+"/whatif", hit, http.StatusOK)
	t.Logf("cached what-if hit: Server.Handler %.0f allocs, Node.Handler %.0f", s.allocs, n.allocs)
	if n.allocs > s.allocs+1 {
		t.Errorf("a cached hit costs %.0f objects through a one-member node, %.0f through the server: more than 1 apart", n.allocs, s.allocs)
	}

	req := BatchWhatIfRequest{Queries: make([]WhatIfRequest, 64)}
	for i := range req.Queries {
		d := i % 48
		req.Queries[i] = WhatIfRequest{
			Speeds:   []ClusterValue{{Cluster: d % 20, Value: 50 + float64(d)}, {Cluster: (d + 3) % 20, Value: 60}},
			Gateways: []ClusterValue{{Cluster: (d + 7) % 20, Value: 100 + float64(d)}},
			Relax:    true,
		}
	}
	batch, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) < 6<<10 {
		t.Fatalf("the batch body is %d bytes: too small to tell a body copy from noise", len(batch))
	}
	s, n = measure(8, server, base+"/whatif/batch", batch, http.StatusOK), measure(8, node, base+"/whatif/batch", batch, http.StatusOK)
	t.Logf("64-query batch on a %d-byte body: Server.Handler %d bytes per op, Node.Handler %d", len(batch), s.bytes, n.bytes)
	if n.bytes > s.bytes+1<<10 {
		t.Errorf("a batch costs %d bytes through a one-member node, %d through the server: more than 1 KiB apart", n.bytes, s.bytes)
	}

	for _, k := range []int{5, 20, 40} {
		pool := NewPool(2)
		server, node := stacks(pool)
		create := []byte(fmt.Sprintf(`{"platform":%s}`, platformJSON(t, testPlatform(t, k, 97))))
		serveReq(server, "POST", "/sessions", create)
		s, n := measure(4, server, "/sessions", create, http.StatusOK), measure(4, node, "/sessions", create, http.StatusOK)
		t.Logf("repeated create at K=%d: Server.Handler %.0f allocs, Node.Handler %.0f", k, s.allocs, n.allocs)
		if n.allocs > s.allocs+16 {
			t.Errorf("a repeated create at K=%d costs %.0f objects through a one-member node, %.0f through the server: more than 16 apart", k, n.allocs, s.allocs)
		}
	}
}

// TestStandaloneNodeSealsNothing: a one-member node with no snapshot
// store — a default standalone schedd — has nowhere to ship a commit,
// so its create and its commits seal no snapshot (the commit hook never
// writes the committed answer's section); with a store it seals each.
func TestStandaloneNodeSealsNothing(t *testing.T) {
	sealed := 0
	orig := encodeAnswer
	t.Cleanup(func() { encodeAnswer = orig })
	encodeAnswer = func(dst []byte, rep *SolveReport) ([]byte, bool) {
		sealed++
		return orig(dst, rep)
	}
	const K = 4
	pl := testPlatform(t, K, 1)
	for _, withStore := range []bool{false, true} {
		var store *cluster.Store
		if withStore {
			var err error
			if store, err = cluster.NewStore(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		pool := NewPool(4)
		h := NewNodeWithConfig(NewServer(pool), "http://self", nil, store, NodeConfig{}).Handler()
		sealed = 0
		rec := serveReq(h, "POST", "/sessions", []byte(`{"platform":`+string(platformJSON(t, pl))+`}`))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
		}
		sess := pool.Sessions()[0]
		if _, err := sess.EpochIdempotent(&EpochRequest{SpeedFactor: driftFactors(K, 0.9)}, ""); err != nil {
			t.Fatal(err)
		}
		switch {
		case !withStore && sealed != 0:
			t.Fatalf("a node with no store and no peers sealed %d snapshots", sealed)
		case withStore && sealed != 2:
			t.Fatalf("a node with a store sealed %d snapshots for a create and a commit, want 2", sealed)
		}
	}
}
