package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRoutePolicyTable drives the pure forwarding policy, next, with
// hand-built views and progress — no ring, no clock, no network — one
// row per class and outcome of the retry contract in DESIGN.md
// "Routing": a transport error, 404, 503 and other answers; the genuine
// 404 relayed at the end of a cycle of HTTP answers only; self in the
// list, an empty list, a suspect ordered last; the back-off schedule; the
// static attempt cap, a passed deadline and a cancelled context. Each row
// names the step it wants and the forwards counted after it; every row
// is asked twice to hold next to its purity, and no row may write into
// the view it was handed, so a policy that reads a clock or a node's
// state shows here first.
func TestRoutePolicyTable(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	const self, a, b, c = "http://self", "http://a", "http://b", "http://c"
	ring := view{self: self, succ: []string{a, b}}
	suspectOwner := view{self: self, succ: []string{a, b}, suspect: []bool{true, false}}
	window := func(left time.Duration) time.Time { return now.Add(left) }
	send := func(target string, failover bool) step {
		return step{act: actSend, target: target, failover: failover}
	}
	wait := func(d time.Duration) step { return step{act: actWait, wait: d - d/2, jitter: d / 2} }
	var (
		serve  = step{act: actServe}
		relay  = step{act: actRelay}
		giveUp = step{act: actGiveUp}
	)
	rows := []struct {
		name  string
		v     view
		class opClass
		a     attempt
		last  outcome
		want  step
		sends int // forwards made once the step is taken
	}{
		// The first try of every class goes to the first candidate.
		{"read: first try goes to the owner", ring, opRead, attempt{}, noOutcome, send(a, false), 1},
		{"create: first try goes to the owner", ring, opCreate, attempt{}, noOutcome, send(a, false), 1},
		{"commit: first try goes to the owner", ring, opCommit, attempt{}, noOutcome, send(a, false), 1},
		{"read: a suspect is ordered last", suspectOwner, opRead, attempt{}, noOutcome, send(b, false), 1},
		{"read: the suspect is tried once the others failed", suspectOwner, opRead, attempt{sends: 1}, transportError, send(a, true), 2},
		{"commit: a suspected owner is still the only candidate", suspectOwner, opCommit, attempt{}, noOutcome, send(a, false), 1},

		// Transport errors retry for every class.
		{"read: transport error fails over to the next holder", ring, opRead, attempt{sends: 1}, transportError, send(b, true), 2},
		{"create: transport error fails over to the next holder", ring, opCreate, attempt{sends: 1}, transportError, send(b, true), 2},
		{"read: transport error ending a cycle backs off", ring, opRead, attempt{sends: 2}, transportError, wait(retryBase), 2},
		{"commit: transport error backs off, then retries the owner", ring, opCommit, attempt{sends: 1}, transportError, wait(retryBase), 1},

		// HTTP answers: 404 and 503 move a read or create on, a commit
		// moves on at 503 only, anything else is the client's answer.
		{"read: 404 tries the next holder", ring, opRead, attempt{sends: 1}, http.StatusNotFound, send(b, true), 2},
		{"read: 503 tries the next holder", ring, opRead, attempt{sends: 1}, http.StatusServiceUnavailable, send(b, true), 2},
		{"create: 404 tries the next holder", ring, opCreate, attempt{sends: 1}, http.StatusNotFound, send(b, true), 2},
		{"create: 503 tries the next holder", ring, opCreate, attempt{sends: 1}, http.StatusServiceUnavailable, send(b, true), 2},
		{"read: 2xx is relayed", ring, opRead, attempt{sends: 1}, http.StatusOK, relay, 1},
		{"create: 2xx is relayed", ring, opCreate, attempt{sends: 1}, http.StatusCreated, relay, 1},
		{"read: 400 is relayed", ring, opRead, attempt{sends: 1}, http.StatusBadRequest, relay, 1},
		{"read: 500 is relayed", ring, opRead, attempt{sends: 1}, http.StatusInternalServerError, relay, 1},
		{"commit: 2xx is relayed", ring, opCommit, attempt{sends: 1}, http.StatusOK, relay, 1},
		{"commit: 404 is relayed", ring, opCommit, attempt{sends: 1}, http.StatusNotFound, relay, 1},
		{"commit: 409 is relayed", ring, opCommit, attempt{sends: 1}, http.StatusConflict, relay, 1},
		{"commit: 503 retries the owner after a back-off", ring, opCommit, attempt{sends: 1}, http.StatusServiceUnavailable, wait(retryBase), 1},

		// The genuine 404: the last candidate of a cycle of HTTP answers
		// only is relayed; one transport error in the cycle backs off.
		{"read: 404 ending an all-HTTP cycle is relayed", ring, opRead, attempt{sends: 2}, http.StatusNotFound, relay, 2},
		{"read: 503 ending an all-HTTP cycle is relayed", ring, opRead, attempt{sends: 2}, http.StatusServiceUnavailable, relay, 2},
		{"create: 404 ending an all-HTTP cycle is relayed", ring, opCreate, attempt{sends: 2}, http.StatusNotFound, relay, 2},
		{"read: 404 ending a mixed cycle backs off", ring, opRead, attempt{sends: 2, mixed: true}, http.StatusNotFound, wait(retryBase), 2},
		{"read: after a back-off the next cycle starts at the owner", ring, opRead, attempt{sends: 2}, noOutcome, send(a, false), 3},

		// Serving here.
		{"read: self as the owner serves here", view{self: a, succ: []string{a, b}}, opRead, attempt{}, noOutcome, serve, 0},
		{"read: self as the next holder serves here", view{self: b, succ: []string{a, b}}, opRead, attempt{sends: 1}, http.StatusNotFound, serve, 1},
		{"commit: self as the owner serves here", view{self: a, succ: []string{a, b}}, opCommit, attempt{}, noOutcome, serve, 0},
		{"read: an empty list serves here", view{self: self}, opRead, attempt{}, noOutcome, serve, 0},
		{"commit: an empty list serves here", view{self: self}, opCommit, attempt{sends: 1}, transportError, serve, 1},

		// The back-off schedule.
		{"read: the third cycle backs off 4×base", ring, opRead, attempt{sends: 6, deadline: window(time.Hour)}, transportError, wait(4 * retryBase), 6},
		{"commit: the back-off is capped", ring, opCommit, attempt{sends: 40, deadline: window(time.Hour)}, transportError, wait(retryCap), 40},
		{"read: a back-off may run past the deadline", view{self: self, succ: []string{a, b, c}}, opRead, attempt{sends: 30, deadline: window(time.Nanosecond)}, transportError, wait(retryCap), 30},

		// Giving up: at the end of a cycle, once staticAttempts sends are
		// made and the deadline, if any, has passed.
		{"read: the static schedule ends after staticAttempts sends", ring, opRead, attempt{sends: staticAttempts}, transportError, giveUp, staticAttempts},
		{"commit: the static schedule ends after staticAttempts sends", ring, opCommit, attempt{sends: staticAttempts}, http.StatusServiceUnavailable, giveUp, staticAttempts},
		{"read: the static schedule finishes its last cycle", view{self: self, succ: []string{a, b, c}}, opRead, attempt{sends: staticAttempts}, transportError, send(c, true), staticAttempts + 1},
		{"read: the static schedule ends with that cycle", view{self: self, succ: []string{a, b, c}}, opRead, attempt{sends: staticAttempts + 1}, transportError, giveUp, staticAttempts + 1},
		{"read: a window is not bounded by staticAttempts", ring, opRead, attempt{sends: staticAttempts + 1, deadline: window(time.Second)}, transportError, send(b, true), staticAttempts + 2},
		{"commit: a window is not bounded by staticAttempts", ring, opCommit, attempt{sends: staticAttempts, deadline: window(time.Second)}, transportError, wait(retryCap), staticAttempts},
		{"commit: a passed deadline gives up at the cycle's end", ring, opCommit, attempt{sends: staticAttempts, deadline: window(0)}, transportError, giveUp, staticAttempts},
		{"commit: a passed deadline still makes staticAttempts sends", ring, opCommit, attempt{sends: 3, deadline: window(0)}, transportError, wait(4 * retryBase), 3},
		{"commit: a hung owner's one send outlasting the window is retried", ring, opCommit, attempt{sends: 1, deadline: window(-10 * time.Second)}, transportError, wait(retryBase), 1},
		{"read: a passed deadline still finishes the cycle", ring, opRead, attempt{sends: 3, deadline: window(-time.Second)}, transportError, send(b, true), 4},
		{"read: a cancelled context gives up", ring, opRead, attempt{sends: 1}, cancelled, giveUp, 1},
		{"commit: a cancelled context gives up", ring, opCommit, attempt{sends: 1, deadline: window(time.Hour)}, cancelled, giveUp, 1},
		{"commit: a back-off cut short by the client gives up", ring, opCommit, attempt{sends: 2, deadline: window(time.Hour)}, cancelled, giveUp, 2},
	}
	for _, row := range rows {
		succ := slices.Clone(row.v.succ)
		got, after := next(row.v, row.class, row.a, row.last, now)
		again, afterAgain := next(row.v, row.class, row.a, row.last, now)
		if got != again || after != afterAgain {
			t.Errorf("%s: next is not a function of its inputs: %+v then %+v", row.name, got, again)
		}
		if !slices.Equal(row.v.succ, succ) {
			t.Errorf("%s: next rewrote the view's successors to %v", row.name, row.v.succ)
		}
		if got != row.want {
			t.Errorf("%s: step %+v, want %+v", row.name, got, row.want)
		}
		if after.sends != row.sends {
			t.Errorf("%s: %d forwards after the step, want %d", row.name, after.sends, row.sends)
		}
		if got.act == actWait && after.mixed {
			t.Errorf("%s: a back-off kept the finished cycle's transport error", row.name)
		}
	}
}

// TestUnknownSessionReadIs404 is the genuine-404 row on a real ring: a
// read of a session no member holds, asked of the one member that is
// not on its successor chain, asks the owner, fails over once to the
// replica holder, and relays that holder's 404 with no back-off (a
// back-off would come only before a third send).
func TestUnknownSessionReadIs404(t *testing.T) {
	nodes, servers := startRing(t, 3, false)
	id, via := "", -1
	for i := 0; via < 0; i++ {
		id = fmt.Sprintf("no-such-session-%d", i)
		succ := nodes[0].currentRing().Successors(id, 2)
		for j, n := range nodes {
			if !slices.Contains(succ, n.self) {
				via = j
			}
		}
	}
	status, raw, err := doJSONRaw(servers[via].Client(), "POST", servers[via].URL+"/sessions/"+id+"/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusNotFound {
		t.Fatalf("read of an unknown session answered %d, want 404: %s", status, raw)
	}
	if got := nodes[via].retries.Value(); got != 1 {
		t.Fatalf("%d retries, want 1: the owner, then its replica holder", got)
	}
	if got := nodes[via].failovers.Value(); got != 1 {
		t.Fatalf("%d failovers, want 1", got)
	}
}

// TestCommitOutlastsDetectorAtDefaultRetry is the owner-death contract
// at a failure detector that takes about 4 s to confirm a death, with
// no retry tuning: a commit issued through the replica holder right
// after the owner is killed keeps retrying until the death is confirmed
// and answers from the promoted replica at the next epoch.
func TestCommitOutlastsDetectorAtDefaultRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a 4 s failure detector")
	}
	nodes, servers := startRingCfg(t, 3, NodeConfig{
		Heartbeat:    100 * time.Millisecond,
		SuspectAfter: 1500 * time.Millisecond,
		DeadAfter:    2500 * time.Millisecond,
	})
	client := servers[0].Client()
	created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 207))})
	var rep SolveReport
	doJSON(t, client, "POST", servers[0].URL+"/sessions/"+created.ID+"/epoch", &EpochRequest{SpeedFactor: driftFactors(created.K, 0.9)}, &rep, http.StatusOK)
	owner, successor := ringOwnerOf(t, nodes, created.ID)

	nodes[owner].Stop()
	servers[owner].Close()
	start := time.Now()
	doJSON(t, servers[successor].Client(), "POST", servers[successor].URL+"/sessions/"+created.ID+"/epoch",
		&EpochRequest{GatewayFactor: driftFactors(created.K, 1.1)}, &rep, http.StatusOK)
	if rep.Epoch != 2 {
		t.Fatalf("post-kill commit reached epoch %d, want 2", rep.Epoch)
	}
	t.Logf("the commit rode out the death in %v", time.Since(start).Round(time.Millisecond))
}

// blackHole swallows every request to one member: no answer and no
// refusal, as from a host that is down or cut off, until the request's
// context ends or hang has passed, when the send fails as a connect
// timeout would. Everything else goes through next.
type blackHole struct {
	host atomic.Value // string: the swallowed member's base URL
	hang time.Duration
	next http.RoundTripper
}

func (b *blackHole) RoundTrip(r *http.Request) (*http.Response, error) {
	if h, _ := b.host.Load().(string); h == "" || h != "http://"+r.URL.Host {
		return b.next.RoundTrip(r)
	}
	if r.Body != nil {
		r.Body.Close()
	}
	t := time.NewTimer(b.hang)
	defer t.Stop()
	select {
	case <-r.Context().Done():
		return nil, r.Context().Err()
	case <-t.C:
		return nil, fmt.Errorf("dial %s: i/o timeout", r.URL.Host)
	}
}

// TestCommitOutlastsHungOwner is the owner-death contract when the
// owner hangs instead of refusing: every send to it, the heartbeats
// included, waits out its timeout. The commit's first send to the
// owner fails only after the retry window has passed; staticAttempts
// sends are still a floor, so the commit is retried and answers from
// the promoted replica at the next epoch instead of 502.
func TestCommitOutlastsHungOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a 4 s send to a hung owner")
	}
	hole := &blackHole{hang: 4 * time.Second, next: defaultTransport()}
	cfg := NodeConfig{
		Heartbeat:    100 * time.Millisecond,
		SuspectAfter: 500 * time.Millisecond,
		DeadAfter:    time.Second,
		Transport:    hole,
	}
	nodes, servers := startRingCfg(t, 3, cfg)
	client := servers[0].Client()
	created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 211))})
	var rep SolveReport
	doJSON(t, client, "POST", servers[0].URL+"/sessions/"+created.ID+"/epoch", &EpochRequest{SpeedFactor: driftFactors(created.K, 0.9)}, &rep, http.StatusOK)
	owner, successor := ringOwnerOf(t, nodes, created.ID)
	via := nodes[successor]
	if window := via.membership.Confirmation(max(cfg.Heartbeat, via.healthTimeout())) + retryCap; hole.hang <= window {
		t.Fatalf("a send hangs %v, within the %v retry window: the test would not outlast it", hole.hang, window)
	}

	nodes[owner].Stop()
	hole.host.Store(nodes[owner].self)
	start := time.Now()
	doJSON(t, servers[successor].Client(), "POST", servers[successor].URL+"/sessions/"+created.ID+"/epoch",
		&EpochRequest{GatewayFactor: driftFactors(created.K, 1.1)}, &rep, http.StatusOK)
	if rep.Epoch != 2 {
		t.Fatalf("post-hang commit reached epoch %d, want 2", rep.Epoch)
	}
	if took := time.Since(start); took < hole.hang {
		t.Fatalf("the commit answered in %v, before its send to the hung owner could fail", took)
	}
	t.Logf("the commit rode out the hung owner in %v", time.Since(start).Round(time.Millisecond))
}

// TestForwardingStopsWhenClientGoes: a forwarded commit to a dead
// owner whose client gives up stops at once. The back-off waits on the
// request's context, and a context error ends the forwarding with no
// retry counted.
func TestForwardingStopsWhenClientGoes(t *testing.T) {
	var handlers [2]*lateHandler
	var servers [2]*httptest.Server
	var urls []string
	for i := range handlers {
		handlers[i] = &lateHandler{}
		servers[i] = httptest.NewServer(handlers[i])
		defer servers[i].Close()
		urls = append(urls, servers[i].URL)
	}
	n := NewNodeWithConfig(NewServer(NewPool(4)), urls[0], urls, nil, NodeConfig{})
	done := make(chan struct{}, 1)
	h := n.Handler()
	handlers[0].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/epoch") {
			done <- struct{}{}
		}
	}))
	servers[1].Close() // the owner is gone: every send is refused at once
	id := ""
	for i := 0; id == ""; i++ {
		if k := fmt.Sprintf("s%d", i); n.currentRing().Owner(k) == urls[1] {
			id = k
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", urls[0]+"/sessions/"+id+"/epoch", strings.NewReader(`{"speedFactor":[0.9]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := servers[0].Client().Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("the commit answered %d before its client gave up", resp.StatusCode)
	}
	time.Sleep(100 * time.Millisecond) // the node sees the connection close
	before := n.retries.Value()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the forwarding never ended")
	}
	if after := n.retries.Value(); after != before {
		t.Fatalf("retries went %d → %d after the client had gone", before, after)
	}
}
