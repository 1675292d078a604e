package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrape fetches url and returns the body as a string, failing the
// test on transport errors or non-200.
func scrape(t testing.TB, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts one sample value from an exposition by its
// exact series name (labels included).
func metricValue(t testing.TB, exposition, series string) float64 {
	t.Helper()
	for _, ln := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(ln, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %q: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, exposition)
	return 0
}

// TestMetricsUnderConcurrentTraffic storms one session with queries
// and what-ifs while /metrics and /stats are scraped concurrently:
// every mid-storm exposition must be valid Prometheus text, counters
// must be monotone, and the per-endpoint histogram counts must equal
// the exact number of requests issued. Run under -race in CI, this is
// also the data-race check for the whole observation path.
func TestMetricsUnderConcurrentTraffic(t *testing.T) {
	srv := NewServer(NewPool(8))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	pl := testPlatform(t, 6, 301)
	var created CreateSessionResponse
	doJSON(t, client, "POST", ts.URL+"/sessions", &CreateSessionRequest{Platform: platformJSON(t, pl)}, &created, http.StatusCreated)

	const workers, perWorker = 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				status, _, err := doJSONRaw(client, "POST", ts.URL+"/sessions/"+created.ID+"/query", nil)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("query: status %d err %v", status, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				status, _, err := doJSONRaw(client, "POST", ts.URL+"/sessions/"+created.ID+"/whatif", &WhatIfRequest{Relax: true})
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("whatif: status %d err %v", status, err)
					return
				}
			}
		}()
	}

	// Concurrent scrapers: every mid-storm /metrics must validate, and
	// /stats must stay decodable. Record the last mid-storm query count
	// for the monotonicity check.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	var midMu sync.Mutex
	midQueries := 0.0
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			body := scrape(t, client, ts.URL+"/metrics")
			if err := obs.ValidateText(strings.NewReader(body)); err != nil {
				errs <- fmt.Errorf("mid-storm exposition invalid: %v", err)
				return
			}
			if strings.Contains(body, `schedd_request_seconds_count{endpoint="query"}`) {
				v := metricValue(t, body, `schedd_request_seconds_count{endpoint="query"}`)
				midMu.Lock()
				if v < midQueries {
					errs <- fmt.Errorf("query count went backwards: %v -> %v", midQueries, v)
					midMu.Unlock()
					return
				}
				midQueries = v
				midMu.Unlock()
			}
		}
	}()
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var st PoolStatsResponse
			if err := doJSONE(client, "GET", ts.URL+"/stats", nil, &st); err != nil {
				errs <- fmt.Errorf("mid-storm stats: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final := scrape(t, client, ts.URL+"/metrics")
	if err := obs.ValidateText(strings.NewReader(final)); err != nil {
		t.Fatalf("final exposition invalid: %v\n%s", err, final)
	}
	// Histogram counts equal the exact number of requests issued.
	want := float64(workers * perWorker)
	if got := metricValue(t, final, `schedd_request_seconds_count{endpoint="query"}`); got != want {
		t.Fatalf("query count = %v, want %v", got, want)
	}
	if got := metricValue(t, final, `schedd_request_seconds_count{endpoint="whatif"}`); got != want {
		t.Fatalf("whatif count = %v, want %v", got, want)
	}
	if got := metricValue(t, final, `schedd_request_seconds_count{endpoint="create"}`); got != 1 {
		t.Fatalf("create count = %v, want 1", got)
	}
	if mid := midQueries; mid > want {
		t.Fatalf("mid-storm query count %v exceeds total issued %v", mid, want)
	}
	if got := metricValue(t, final, "schedd_sessions_live"); got != 1 {
		t.Fatalf("sessions_live = %v, want 1", got)
	}
	// Solver phase timings flow through to the exposition.
	if got := metricValue(t, final, `schedd_solver_phase_nanoseconds_total{phase="ftran"}`); got <= 0 {
		t.Fatalf("ftran phase nanos = %v, want > 0", got)
	}
	// The per-session latency histogram counted the session traffic.
	sessSeries := fmt.Sprintf(`schedd_session_request_seconds_count{session=%q}`, sessionLabel(created.ID))
	if got := metricValue(t, final, sessSeries); got != 2*want {
		t.Fatalf("session request count = %v, want %v", got, 2*want)
	}
}

// TestTraceHeaderEcho pins the trace contract on a standalone server:
// a client-supplied X-Schedd-Trace is echoed back, and a request
// without one gets a server-minted ID.
func TestTraceHeaderEcho(t *testing.T) {
	srv := NewServer(NewPool(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/sessions", nil)
	req.Header.Set(traceHeader, "my-trace-0001")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(traceHeader); got != "my-trace-0001" {
		t.Fatalf("trace echo = %q, want my-trace-0001", got)
	}

	resp2, err := ts.Client().Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(traceHeader); got == "" {
		t.Fatal("server did not mint a trace ID")
	}
}

// TestHealthzConditions drives the health evaluator end to end: a
// healthy pool answers /healthz 200, and stays healthy through a run of
// distinct relaxed what-ifs — every one an answer-cache miss, the
// traffic a what-if service exists for, which must not fail the probe.
// A condition degraded through the hook flips /healthz to 503 and
// surfaces in the /stats row and in the degraded-conditions gauge;
// removing the hook clears it.
func TestHealthzConditions(t *testing.T) {
	srv := NewServer(NewPool(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	pl := testPlatform(t, 6, 302)
	var created CreateSessionResponse
	doJSON(t, client, "POST", ts.URL+"/sessions", &CreateSessionRequest{Platform: platformJSON(t, pl)}, &created, http.StatusCreated)

	var healthy HealthResponse
	doJSON(t, client, "GET", ts.URL+"/healthz", nil, &healthy, http.StatusOK)
	if healthy.Status != "ok" || len(healthy.Degraded) != 0 {
		t.Fatalf("healthy probe = %+v", healthy)
	}

	// Conditions appear in /stats rows even when all Healthy.
	var st PoolStatsResponse
	doJSON(t, client, "GET", ts.URL+"/stats", nil, &st, http.StatusOK)
	if len(st.Sessions) != 1 || len(st.Sessions[0].Conditions) == 0 {
		t.Fatalf("stats rows carry no conditions: %+v", st.Sessions)
	}
	sessSeries := fmt.Sprintf("schedd_session_healthy{session=%q}", sessionLabel(created.ID))

	// Distinct what-ifs never hit the answer cache; the session is
	// still healthy on every surface.
	const distinct = 70
	for i := 0; i < distinct; i++ {
		var rep SolveReport
		doJSON(t, client, "POST", ts.URL+"/sessions/"+created.ID+"/whatif", &WhatIfRequest{
			Gateways: []ClusterValue{{Cluster: 0, Value: pl.Clusters[0].Gateway * (0.5 + float64(i)/100)}},
			Relax:    true,
		}, &rep, http.StatusOK)
	}
	doJSON(t, client, "GET", ts.URL+"/stats", nil, &st, http.StatusOK)
	if row := st.Sessions[0]; row.CacheMisses < distinct || row.CacheHits != 0 {
		t.Fatalf("cache hits %d misses %d, want 0 hits over >= %d misses", row.CacheHits, row.CacheMisses, distinct)
	}
	for _, c := range st.Sessions[0].Conditions {
		if c.Status != CondHealthy {
			t.Fatalf("after %d distinct what-ifs: %s is %s (%s)", distinct, c.Type, c.Status, c.Message)
		}
	}
	doJSON(t, client, "GET", ts.URL+"/healthz", nil, &healthy, http.StatusOK)
	if healthy.Status != "ok" || len(healthy.Degraded) != 0 {
		t.Fatalf("probe after %d distinct what-ifs = %+v", distinct, healthy)
	}
	if got := metricValue(t, scrape(t, client, ts.URL+"/metrics"), sessSeries); got != 1 {
		t.Fatalf("session healthy gauge after %d distinct what-ifs = %v, want 1", distinct, got)
	}

	// Degrade through the hook, the seam the ring node contributes by.
	srv.SetConditionHook(func(string) []Condition {
		return []Condition{{Type: CondReplicationLag, Status: CondDegraded, Message: "1 of 2 replicas unreached"}}
	})
	var degraded HealthResponse
	doJSON(t, client, "GET", ts.URL+"/healthz", nil, &degraded, http.StatusServiceUnavailable)
	if degraded.Status != "degraded" || len(degraded.Degraded) == 0 {
		t.Fatalf("degraded probe = %+v", degraded)
	}
	found := false
	for _, d := range degraded.Degraded {
		if strings.Contains(d, CondReplicationLag) {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded list lacks %s: %v", CondReplicationLag, degraded.Degraded)
	}
	doJSON(t, client, "GET", ts.URL+"/stats", nil, &st, http.StatusOK)
	sawDegraded := false
	for _, c := range st.Sessions[0].Conditions {
		if c.Type == CondReplicationLag && c.Status == CondDegraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatalf("stats row lacks the degraded hooked condition: %+v", st.Sessions[0].Conditions)
	}
	body := scrape(t, client, ts.URL+"/metrics")
	if got := metricValue(t, body, "schedd_health_degraded_conditions"); got < 1 {
		t.Fatalf("degraded gauge = %v, want >= 1", got)
	}
	if got := metricValue(t, body, sessSeries); got != 0 {
		t.Fatalf("session healthy gauge = %v, want 0", got)
	}

	srv.SetConditionHook(nil)
	doJSON(t, client, "GET", ts.URL+"/healthz", nil, &healthy, http.StatusOK)
	if healthy.Status != "ok" {
		t.Fatalf("probe after the hook is removed = %+v", healthy)
	}
}

// TestTraceForwardAndFailover pins the acceptance scenario: a trace
// ID injected at one node of a 3-node ring is observable in the
// response after a forced forward (request landing on a non-owner)
// AND after a forced failover (owner killed, successor promoted).
func TestTraceForwardAndFailover(t *testing.T) {
	nodes, servers := startRing(t, 3, false)
	client := servers[0].Client()

	pl := testPlatform(t, 6, 303)
	resp := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
	owner, successor := ringOwnerOf(t, nodes, resp.ID)
	other := -1
	for i := range nodes {
		if i != owner && i != successor {
			other = i
		}
	}
	if other < 0 {
		t.Fatal("no third node")
	}

	// Forced forward: the query lands on a node that neither owns the
	// session nor holds its replica, so it must be proxied to the
	// owner — and the injected trace ID must come back.
	post := func(trace string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("POST", servers[other].URL+"/sessions/"+resp.ID+"/query", nil)
		req.Header.Set(traceHeader, trace)
		res, err := servers[other].Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body) //nolint:errcheck
		res.Body.Close()
		return res
	}
	fwd := post("trace-forward-01")
	if fwd.StatusCode != http.StatusOK {
		t.Fatalf("forwarded query status %d", fwd.StatusCode)
	}
	if got := fwd.Header.Get(traceHeader); got != "trace-forward-01" {
		t.Fatalf("forwarded trace echo = %q, want trace-forward-01", got)
	}
	// The forwarding node counted the proxy hop.
	if nodes[other].forwarded.Value() == 0 {
		t.Fatalf("forwarding node counted no forwards")
	}

	// Forced failover: kill the owner; the same request through the
	// third node must fail over to the successor's promoted replica and
	// still echo the injected trace.
	servers[owner].Close()
	fo := post("trace-failover-02")
	if fo.StatusCode != http.StatusOK {
		t.Fatalf("failover query status %d", fo.StatusCode)
	}
	if got := fo.Header.Get(traceHeader); got != "trace-failover-02" {
		t.Fatalf("failover trace echo = %q, want trace-failover-02", got)
	}

	// The failover shows up in the forwarding node's metrics, and the
	// scrape is valid Prometheus text with the cluster families.
	body := scrape(t, servers[other].Client(), servers[other].URL+"/metrics")
	if err := obs.ValidateText(strings.NewReader(body)); err != nil {
		t.Fatalf("node exposition invalid: %v", err)
	}
	if got := metricValue(t, body, "schedd_cluster_failovers_total"); got < 1 {
		t.Fatalf("failovers = %v, want >= 1", got)
	}
	if got := metricValue(t, body, "schedd_cluster_forwarded_total"); got < 2 {
		t.Fatalf("forwarded = %v, want >= 2", got)
	}
	// The successor fanned replicas out at create time; its fan-out
	// histogram must have observations.
	sBody := scrape(t, servers[successor].Client(), servers[successor].URL+"/metrics")
	if got := metricValue(t, sBody, "schedd_replication_fanout_seconds_count"); got < 1 {
		t.Fatalf("successor fan-out count = %v, want >= 1", got)
	}
}

// TestForwardHopBoundRejected pins the loop guard: a forwarded
// request claiming more than maxForwardHops hops is rejected with
// 508 Loop Detected and counted, instead of being served or bounced.
func TestForwardHopBoundRejected(t *testing.T) {
	handler := &lateHandler{}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	n := NewNodeWithConfig(NewServer(NewPool(4)), ts.URL, nil, nil, NodeConfig{})
	handler.set(n.Handler())
	client := ts.Client()

	pl := testPlatform(t, 6, 304)
	body, _ := json.Marshal(&CreateSessionRequest{Platform: platformJSON(t, pl)})
	req, _ := http.NewRequest("POST", ts.URL+"/sessions", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "test")
	res, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var created CreateSessionResponse
	json.NewDecoder(res.Body).Decode(&created) //nolint:errcheck
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", res.StatusCode)
	}

	// Within the bound: served.
	q, _ := http.NewRequest("POST", ts.URL+"/sessions/"+created.ID+"/query", nil)
	q.Header.Set(forwardedHeader, "test")
	q.Header.Set(hopsHeader, strconv.Itoa(maxForwardHops))
	qres, err := client.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	qres.Body.Close()
	if qres.StatusCode != http.StatusOK {
		t.Fatalf("in-bound hops status = %d, want 200", qres.StatusCode)
	}

	// Past the bound: 508, distinct error, counted.
	q2, _ := http.NewRequest("POST", ts.URL+"/sessions/"+created.ID+"/query", nil)
	q2.Header.Set(forwardedHeader, "test")
	q2.Header.Set(hopsHeader, strconv.Itoa(maxForwardHops+1))
	q2res, err := client.Do(q2)
	if err != nil {
		t.Fatal(err)
	}
	var eresp ErrorResponse
	json.NewDecoder(q2res.Body).Decode(&eresp) //nolint:errcheck
	q2res.Body.Close()
	if q2res.StatusCode != http.StatusLoopDetected {
		t.Fatalf("over-bound hops status = %d, want 508", q2res.StatusCode)
	}
	if !strings.Contains(eresp.Error, "forwarding loop") {
		t.Fatalf("loop rejection error = %q", eresp.Error)
	}
	if got := n.routingLoops.Value(); got != 1 {
		t.Fatalf("routingLoops = %d, want 1", got)
	}
	if got := metricValue(t, scrape(t, client, ts.URL+"/metrics"), "schedd_routing_loops_total"); got != 1 {
		t.Fatalf("routing loops metric = %v, want 1", got)
	}
}

// TestNodeHealthzQuorum pins the cluster dimension of /healthz: a
// node that loses its membership majority answers 503 with
// quorum=false (it fences commits, so its probe must fail), and
// recovers 200 when a peer returns.
func TestNodeHealthzQuorum(t *testing.T) {
	handler := &lateHandler{}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	n := NewNodeWithConfig(NewServer(NewPool(4)), ts.URL,
		[]string{"http://203.0.113.1:1", "http://203.0.113.2:1"}, nil,
		NodeConfig{SuspectAfter: time.Millisecond, DeadAfter: time.Millisecond})
	handler.set(n.Handler())
	client := ts.Client()

	var hr HealthResponse
	doJSON(t, client, "GET", ts.URL+"/healthz", nil, &hr, http.StatusOK)
	if hr.Quorum == nil || !*hr.Quorum {
		t.Fatalf("pre-partition probe = %+v", hr)
	}

	now := time.Now()
	n.membership.Tick(now.Add(10 * time.Millisecond))
	n.membership.Tick(now.Add(20 * time.Millisecond))
	n.syncRing()
	doJSON(t, client, "GET", ts.URL+"/healthz", nil, &hr, http.StatusServiceUnavailable)
	if hr.Quorum == nil || *hr.Quorum || hr.Status != "degraded" {
		t.Fatalf("partitioned probe = %+v", hr)
	}
	if got := metricValue(t, scrape(t, client, ts.URL+"/metrics"), "schedd_cluster_quorum"); got != 0 {
		t.Fatalf("quorum gauge = %v, want 0", got)
	}

	n.membership.ObserveAck("http://203.0.113.1:1", 999, time.Now())
	doJSON(t, client, "GET", ts.URL+"/healthz", nil, &hr, http.StatusOK)
	if hr.Quorum == nil || !*hr.Quorum {
		t.Fatalf("post-requorum probe = %+v", hr)
	}
}

// TestSessionGaugeLeavesWithItsSession pins the lifetime of the
// per-session health series: schedd_session_healthy is rebuilt from the
// live rows on every scrape, so a deleted session's series goes with it
// instead of reporting its last value forever — a session deleted while
// Degraded used to pin a 0 no operator could clear.
func TestSessionGaugeLeavesWithItsSession(t *testing.T) {
	srv := NewServer(NewPool(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	srv.SetConditionHook(func(string) []Condition { // Degraded from the start
		return []Condition{{Type: CondReplicationLag, Status: CondDegraded, Message: "replica unreached"}}
	})

	var gone, stays CreateSessionResponse
	doJSON(t, client, "POST", ts.URL+"/sessions", &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 5, 305))}, &gone, http.StatusCreated)
	doJSON(t, client, "POST", ts.URL+"/sessions", &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 5, 306))}, &stays, http.StatusCreated)
	series := func(id string) string { return fmt.Sprintf("schedd_session_healthy{session=%q}", sessionLabel(id)) }

	before := scrape(t, client, ts.URL+"/metrics")
	if metricValue(t, before, series(gone.ID)) != 0 || metricValue(t, before, series(stays.ID)) != 0 {
		t.Fatalf("both sessions should scrape Degraded:\n%s", before)
	}
	doJSON(t, client, "DELETE", ts.URL+"/sessions/"+gone.ID, nil, nil, http.StatusOK)
	after := scrape(t, client, ts.URL+"/metrics")
	if strings.Contains(after, series(gone.ID)) {
		t.Fatalf("series survives the session's deletion: %s", series(gone.ID))
	}
	if metricValue(t, after, series(stays.ID)) != 0 || metricValue(t, after, "schedd_health_degraded_conditions") != 1 {
		t.Fatalf("the surviving session's health did not scrape:\n%s", after)
	}
	if err := obs.ValidateText(strings.NewReader(after)); err != nil {
		t.Fatalf("exposition invalid after the rebuild: %v", err)
	}
}

// TestOneConditionSetOnEverySurface degrades a session through the
// condition hook, beside its Healthy server-side condition, and checks
// that /stats, /healthz and /metrics, which all render from one
// Server.Stats() walk, report the same condition set.
func TestOneConditionSetOnEverySurface(t *testing.T) {
	srv := NewServer(NewPool(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	var created CreateSessionResponse
	doJSON(t, client, "POST", ts.URL+"/sessions", &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 5, 307))}, &created, http.StatusCreated)

	srv.SetConditionHook(func(id string) []Condition {
		return []Condition{{Type: CondReplicationLag, Status: CondDegraded, Message: "hooked for " + sessionLabel(id)}}
	})

	var st PoolStatsResponse
	doJSON(t, client, "GET", ts.URL+"/stats", nil, &st, http.StatusOK)
	var all, fromStats []string
	for _, c := range st.Sessions[0].Conditions {
		all = append(all, c.Type+"="+c.Status)
		if c.Status == CondDegraded {
			fromStats = append(fromStats, sessionLabel(created.ID)+": "+c.Type)
		}
	}
	if wantAll := []string{CondWarmHeadroom + "=" + CondHealthy, CondReplicationLag + "=" + CondDegraded}; !slices.Equal(all, wantAll) {
		t.Fatalf("/stats condition set %v, want %v", all, wantAll)
	}
	want := []string{sessionLabel(created.ID) + ": " + CondReplicationLag}
	if !slices.Equal(fromStats, want) {
		t.Fatalf("/stats degraded set %v, want %v", fromStats, want)
	}

	var hr HealthResponse
	doJSON(t, client, "GET", ts.URL+"/healthz", nil, &hr, http.StatusServiceUnavailable)
	var fromHealthz []string
	for _, d := range hr.Degraded { // "<session>: <type>: <message>"
		parts := strings.SplitN(d, ": ", 3)
		fromHealthz = append(fromHealthz, parts[0]+": "+parts[1])
	}
	if !slices.Equal(fromHealthz, want) {
		t.Fatalf("/healthz degraded set %v, want /stats' %v", fromHealthz, want)
	}

	body := scrape(t, client, ts.URL+"/metrics")
	if got := metricValue(t, body, "schedd_health_degraded_conditions"); got != float64(len(want)) {
		t.Fatalf("/metrics counts %v degraded conditions, want %d", got, len(want))
	}
	if got := metricValue(t, body, fmt.Sprintf("schedd_session_healthy{session=%q}", sessionLabel(created.ID))); got != 0 {
		t.Fatalf("/metrics reports the session healthy (%v)", got)
	}
}
