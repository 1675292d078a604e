package service

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// forwardedHeader marks a request already proxied once by a ring
// member. A forwarded request is always served locally — whichever
// node holds the session answers — so routing disagreements during a
// membership change degrade to one extra hop, never a forwarding
// loop.
const forwardedHeader = "X-Schedd-Forwarded"

// hopsHeader counts forwarding hops a request has taken. The design
// bounds hops at one (forwarded requests are always served locally),
// so the counter is a belt-and-suspenders guard: a request arriving
// with more than maxForwardHops hops means a routing bug or a
// misconfigured mesh, and is rejected with 508 Loop Detected (counted
// in schedd_routing_loops_total) rather than bounced further.
const hopsHeader = "X-Schedd-Hops"

// maxForwardHops is the largest hop count a forwarded request may
// carry and still be served.
const maxForwardHops = 3

// commitIDHeader tags every epoch commit with an idempotency ID (set
// by the first ring member that sees the request, preserved across
// forwards and retries). The serving session records the last applied
// (ID, report) pair — carried in its snapshot, so it survives
// failover — and answers a retry of an applied commit with the
// recorded report. This is what makes commit retries safe even when a
// send died mid-flight and may or may not have been applied.
const commitIDHeader = "X-Schedd-Commit-ID"

// Per-operation deadlines: readTimeout bounds health probes and
// forwarded reads (query/what-if/batch/GET), writeTimeout forwarded
// creates, epoch commits and the small /cluster/* control messages;
// replicate transfers get transferTimeout.
const (
	readTimeout     = 5 * time.Second
	writeTimeout    = 15 * time.Second
	transferTimeout = 30 * time.Second
)

// The back-off between full candidate cycles grows from retryBase,
// doubling, capped at retryCap, each step with equal jitter (half
// fixed, half random). A forwarding gives up at the end of a cycle
// once it has made staticAttempts sends and its retry window, if any,
// has passed: a floor that holds against an owner that hangs rather
// than refuses, each send running to its deadline (see route).
const (
	retryBase      = 50 * time.Millisecond
	retryCap       = time.Second
	staticAttempts = 8
)

// NodeConfig tunes a ring node's replication and failure detection.
// The zero value takes every default, which reproduces the
// static-membership behavior plus replication factor 2: heartbeats
// only run after an explicit Start, so a config that never starts the
// loop never suspects anyone.
type NodeConfig struct {
	// Replication is the total number of copies of each session's
	// snapshot on the ring, the live owner included; default 2 (owner
	// plus one passive replica on the next ring successor). 1 disables
	// snapshot fan-out.
	Replication int

	// Heartbeat is the probe interval of the failure-detection loop
	// started by Start; <= 0 leaves membership static (no probing, no
	// suspicion) even if Start is called.
	Heartbeat time.Duration
	// SuspectAfter / DeadAfter are the failure detector's timeouts
	// (see cluster.MembershipConfig). With the loop running, they and
	// Heartbeat also set how long a forwarding keeps retrying.
	SuspectAfter time.Duration
	DeadAfter    time.Duration

	// RetrySeed seeds the RNG behind back-off jitter and commit IDs;
	// 0 uses wall-clock.
	RetrySeed int64

	// Transport overrides the HTTP transport for all outbound cluster
	// traffic (fault-injection tests wrap it); nil uses a pooled
	// transport tuned for a small mesh of long-lived peers.
	Transport http.RoundTripper
}

// Node wraps a Server in the cluster role: consistent-hash routing of
// session traffic to its ring owner with retry, backoff and successor
// failover; snapshot replication to ring successors on every commit;
// heartbeat-driven failure detection that promotes replicas on a
// confirmed death; session transfer on membership change; snapshot
// persistence for crash recovery; and the cluster section of /stats.
// The ring key is the session ID — a digest of platform.Fingerprint()
// plus the solver configuration — computed from the request body for
// creates and taken from the path for everything else, so every
// replica routes identically with no shared state beyond the member
// list.
type Node struct {
	srv    *Server
	self   string // this replica's advertised base URL
	store  *cluster.Store
	cfg    NodeConfig
	client *http.Client

	membership *cluster.Membership

	mu   sync.Mutex
	ring *cluster.Ring

	repMu     sync.Mutex
	replicas  map[string]*replica
	promoteMu sync.Mutex

	rngMu sync.Mutex
	rng   *rand.Rand

	stopOnce sync.Once
	stopCh   chan struct{}
	loopDone chan struct{}
	started  atomic.Bool

	*nodeMetrics          // the node's counters; see nodeobs.go
	lastFanout   sync.Map // session ID → fanoutRecord
}

// NewNodeWithConfig makes srv a ring member advertised as self (a
// base URL, e.g. "http://10.0.0.3:8080"), with peers as the initial
// member list (self is always included) and store as the snapshot
// directory for crash recovery — nil disables persistence. The pool's
// session hook persists and replicates every committed state change
// (creation, epoch commit, arrival at a new owner) synchronously, so a
// commit is acked to the client only after its snapshot reached the
// store and the ring successors.
func NewNodeWithConfig(srv *Server, self string, peers []string, store *cluster.Store, cfg NodeConfig) *Node {
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	transport := cfg.Transport
	if transport == nil {
		transport = defaultTransport()
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	n := &Node{
		srv:   srv,
		self:  self,
		store: store,
		cfg:   cfg,
		// No blanket client timeout: every outbound request carries a
		// per-operation context deadline instead.
		client: &http.Client{Transport: transport},
		membership: cluster.NewMembership(self, peers, cluster.MembershipConfig{
			SuspectAfter: cfg.SuspectAfter,
			DeadAfter:    cfg.DeadAfter,
		}, time.Now()),
		replicas: make(map[string]*replica),
		rng:      rand.New(rand.NewSource(seed)),
		stopCh:   make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	n.ring = cluster.NewRing(n.membership.Active(), 0)
	n.nodeMetrics = newNodeMetrics(srv.Registry(), n)
	srv.SetConditionHook(n.replicationCondition)
	srv.Pool().SetSessionHook(n.ship)
	return n
}

// Handler returns the node's route table: the cluster control
// endpoints, the /stats interception that adds the cluster section,
// and the owner-routing wrapper around the plain service routes (Server
// routes), instrumented once. A clean session path can only match the
// table's catch-all, so it goes to the router without the table's
// match, which costs a cached hit five objects; a path that cleaning
// would change still reaches the table, and its redirect.
func (n *Node) Handler() http.Handler {
	routed := n.routed(n.srv.routes())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/replicate", n.handleReplicate)
	mux.HandleFunc("POST /cluster/forget", n.handleForget)
	mux.HandleFunc("POST /cluster/health", n.handleHealth)
	mux.HandleFunc("GET /stats", n.handleStats)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.Handle("GET /metrics", n.srv.Registry().Handler())
	mux.Handle("/", routed)
	return n.srv.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := r.URL.Path; strings.HasPrefix(p, "/sessions") && path.Clean(p) == p {
			routed.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	}))
}

// opClass partitions routed operations by their retry contract.
type opClass int

const (
	// opLocal requests have no routable key; serve locally.
	opLocal opClass = iota
	// opRead: idempotent (query, what-if, batch, GETs, DELETE) —
	// freely retried and failed over to any replica-holding successor.
	opRead
	// opCreate: POST /sessions. Creates are deterministic (same body →
	// same session ID and same answers on any replica), so they are
	// retried and failed over like reads.
	opCreate
	// opCommit: POST .../epoch. Owner-only, NOT failed over to other
	// holders — but freely retried against the ring's current owner:
	// every commit carries an idempotency ID, so the retry of a commit
	// that did apply (response lost mid-flight, owner died after
	// applying) is answered from the session's dedup record instead of
	// being applied twice.
	opCommit
)

// classify maps a request, its path as sessionPath parsed it, to its
// class.
func classify(method, id, sub string, ok bool) opClass {
	switch {
	case !ok:
		return opLocal
	case method == http.MethodPost && sub == "epoch":
		return opCommit
	case id != "":
		return opRead
	case method == http.MethodPost:
		return opCreate
	}
	return opLocal // GET /sessions lists local sessions
}

// routed only decides and forwards (DESIGN.md "Routing"): session
// traffic goes to its ring owner, with retry and successor failover;
// everything else, and what this replica owns or was explicitly
// forwarded, to inner, unread. A create routes on the ID its body
// digests to, so it is read and decoded here, once, and served from that.
func (n *Node) routed(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, sub, ok := sessionPath(r.URL.Path)
		class := classify(r.Method, id, sub, ok)
		if class == opLocal {
			inner.ServeHTTP(w, r)
			return
		}
		if class == opCommit && r.Header.Get(commitIDHeader) == "" {
			// First ring member to see this commit: tag it. Forwards
			// and retries preserve the tag.
			r.Header.Set(commitIDHeader, n.newCommitID())
		}
		if from := r.Header.Get(forwardedHeader); from != "" {
			if hops, _ := strconv.Atoi(r.Header.Get(hopsHeader)); hops > maxForwardHops {
				n.routingLoops.Add(1)
				writeError(w, http.StatusLoopDetected,
					fmt.Errorf("forwarding loop: request took %d hops, limit %d", hops, maxForwardHops))
				return
			}
			if ti := requestTrace(r); ti != nil {
				ti.decision = "forwarded"
				ti.target = from
			}
			n.serveLocal(w, r, inner, class, id)
			return
		}
		if class != opCreate {
			n.route(w, r, inner, class, id, id, nil)
			return
		}
		var body []byte
		if bufferBody(w, r, &body) {
			if pl, cfg, key, ok := readCreate(w, r); ok {
				create := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { n.srv.create(w, pl, cfg, key) })
				n.route(w, r, create, class, id, key, body)
			}
		}
	})
}

// bufferBody reads r's body for route's first send (a create's, to key
// it), in one exactly-sized allocation when its length is declared, and
// puts it back as r's body for a later serve here; 400 on failure.
func bufferBody(w http.ResponseWriter, r *http.Request, body *[]byte) bool {
	var err error
	if *body, err = readBounded(nil, r.Body, r.ContentLength); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	r.Body = io.NopCloser(bytes.NewReader(*body))
	r.ContentLength = int64(len(*body))
	return true
}

// serveLocal serves the request from this replica: fence commits when
// membership quorum is lost (a partitioned minority must not commit —
// the majority side may already have promoted a new owner), promote a
// passive replica to a live session if that's all we hold, and fan a
// forget to successors after a session delete.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, inner http.Handler, class opClass, id string) {
	if class == opCommit && !n.membership.Quorum() {
		n.fencedCommits.Add(1)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("epoch commit fenced: replica lacks membership quorum"))
		return
	}
	if id != "" && class != opCreate {
		n.promoteIfReplica(id)
	}
	inner.ServeHTTP(w, r)
	if r.Method == http.MethodDelete && id != "" {
		n.forgetSession(id)
	}
}

// newCommitID draws a commit idempotency tag: this node's identity
// hashed in (two tagging routers can never collide even with equal
// RNG seeds) plus 128 random bits.
func (n *Node) newCommitID() string {
	n.rngMu.Lock()
	a, b := n.rng.Uint64(), n.rng.Uint64()
	n.rngMu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(n.self)) //nolint:errcheck // fnv never fails
	return fmt.Sprintf("%016x%016x%016x", h.Sum64(), a, b)
}

// view is what next decides on: the key's ring successors, owner
// first, and which of them the failure detector no longer calls alive
// (nil: none).
type view struct {
	self    string
	succ    []string
	suspect []bool
}

// candidates lists the members to try, best first: a commit goes to
// the owner only; a read or create may fail over along the key's
// successors (the members holding its replicas), suspects last, so the
// common case skips a peer that is probably down without waiting for
// the death to be confirmed.
func (v view) candidates(class opClass) []string {
	if class == opCommit {
		return v.succ[:min(len(v.succ), 1)]
	}
	if v.suspect == nil {
		return v.succ
	}
	out := make([]string, 0, len(v.succ))
	for _, suspect := range [2]bool{false, true} {
		for i, m := range v.succ {
			if v.suspect[i] == suspect {
				out = append(out, m)
			}
		}
	}
	return out
}

// outcome is what the last step came to: the HTTP status a peer
// answered, or one of these.
type outcome int

const (
	noOutcome      outcome = 0  // the first decision, or a back-off just ended
	transportError outcome = -1 // the send got no HTTP answer
	cancelled      outcome = -2 // the client went away
)

// attempt is a forwarding's progress, handed from one next to the next.
type attempt struct {
	sends    int       // forwards made so far
	mixed    bool      // a send of this candidate cycle got no HTTP answer
	deadline time.Time // retry until then; zero: at most staticAttempts sends
}

// step is one decision of next.
type step struct {
	act      action
	target   string        // actSend: the member to forward to
	failover bool          // actSend: target is not the first candidate
	wait     time.Duration // actWait: back off this long, plus a uniform
	jitter   time.Duration // draw of up to jitter more
}

type action uint8

const (
	actServe  action = iota // serve the request here
	actSend                 // forward it to target
	actWait                 // back off, then ask next again
	actRelay                // relay the last answer to the client
	actGiveUp               // answer 502
)

// next is the forwarding policy, the retry contract of DESIGN.md
// "Routing" as one pure function: from the view, the class, the
// progress so far, what the last step came to and the time, it decides
// the next step. It reads no clock, no RNG and no Node state; route
// carries its steps out. A full failed cycle of candidates backs off
// before the next. Only a cycle that fails with staticAttempts sends
// made and the deadline passed (a zero deadline always has) gives up,
// so the last try is made once the window has passed. Serving here is
// terminal: the ring says the session is (now) ours.
func next(v view, class opClass, a attempt, last outcome, now time.Time) (step, attempt) {
	cands := v.candidates(class)
	i := a.sends % max(len(cands), 1) // 0 after a send: it ended a cycle
	switch {
	case last == cancelled:
		return step{act: actGiveUp}, a
	case last == transportError:
		// Retried for every class: reads and creates are idempotent by
		// nature, commits by their idempotency tag.
		a.mixed = true
	case last > 0:
		// A commit's 503 is an owner that refused it unapplied (fenced,
		// or not ready); a read's or create's 404 or 503 is a holder
		// without the session (yet). Any other answer goes back to the
		// client, and so does the last of a cycle of HTTP answers only:
		// every holder is reachable and none has the session.
		retry := last == http.StatusServiceUnavailable || class != opCommit && last == http.StatusNotFound
		if !retry || class != opCommit && i == 0 && !a.mixed {
			return step{act: actRelay}, a
		}
	}
	switch {
	case len(cands) == 0:
		return step{act: actServe}, a
	case i == 0 && a.sends > 0 && last != noOutcome:
		if a.sends >= staticAttempts && !now.Before(a.deadline) {
			return step{act: actGiveUp}, a
		}
		a.mixed = false
		d := retryBase << (a.sends/len(cands) - 1)
		if d > retryCap || d <= 0 {
			d = retryCap
		}
		return step{act: actWait, wait: d - d/2, jitter: d / 2}, a
	case cands[i] == v.self:
		return step{act: actServe}, a
	}
	a.sends++
	return step{act: actSend, target: cands[i], failover: i != 0}, a
}

// route carries out next's steps for one request: snapshot the ring
// and the member states (afresh for each decision but one on an HTTP
// answer, which reuses its send's view), ask next, then serve, send,
// wait, relay or give up, counting retries and failovers and tracing
// what was done. With the failure detector running, the retry window
// is the detector's confirmation time, its probe rounds stretched by a
// hung peer (cluster.Membership.Confirmation), plus one back-off step
// in which the promoted owner is tried.
func (n *Node) route(w http.ResponseWriter, r *http.Request, inner http.Handler, class opClass, id, key string, body []byte) {
	ti := requestTrace(r)
	var a attempt
	if n.started.Load() {
		round := max(n.cfg.Heartbeat, n.healthTimeout())
		a.deadline = time.Now().Add(n.membership.Confirmation(round) + retryCap)
	}
	var (
		v      view
		st     step
		last   outcome
		header http.Header
		resp   *[]byte
		err    error
	)
	defer func() { releaseResp(resp) }()
	for {
		target := st.target
		if last <= noOutcome {
			v = n.view(key)
		}
		st, a = next(v, class, a, last, time.Now())
		switch st.act {
		case actServe:
			if a.sends == 0 {
				n.forwarded.Add(1)
			}
			n.serveLocal(w, r, inner, class, id)
			return
		case actRelay:
			relay(w, int(last), header, *resp)
			return
		case actGiveUp:
			if err == nil {
				err = fmt.Errorf("%s answered %d", target, last)
			}
			writeError(w, http.StatusBadGateway, fmt.Errorf("forwarding %s %s: retries exhausted: %w", r.Method, r.URL.Path, err))
			return
		case actWait:
			n.rngMu.Lock()
			d := st.wait + time.Duration(n.rng.Int63n(int64(st.jitter)+1))
			n.rngMu.Unlock()
			if ti != nil {
				ti.backoff += d
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
				last = noOutcome
			case <-r.Context().Done():
				t.Stop()
				last, err = cancelled, r.Context().Err()
			}
			continue
		}
		switch {
		case a.sends == 1:
			if class != opCreate && !bufferBody(w, r, &body) {
				return
			}
			n.forwarded.Add(1)
		default:
			n.retries.Add(1)
			if st.failover {
				n.failovers.Add(1)
			}
		}
		if ti != nil {
			ti.attempts, ti.target, ti.decision = a.sends, st.target, "owner"
			if st.failover {
				ti.decision = "failover"
			}
		}
		releaseResp(resp)
		var status int
		status, header, resp, err = n.send(r, st.target, body, class)
		if last = outcome(status); err != nil {
			last = transportError
			if r.Context().Err() != nil {
				last = cancelled
			}
		}
	}
}

// view snapshots what next decides on for key.
func (n *Node) view(key string) view {
	v := view{self: n.self, succ: n.currentRing().Successors(key, n.cfg.Replication)}
	for i, m := range v.succ {
		if st, known := n.membership.State(m); known && st != cluster.StateAlive {
			if v.suspect == nil {
				v.suspect = make([]bool, len(v.succ))
			}
			v.suspect[i] = true
		}
	}
	return v
}

// send forwards the request once to target under its class's
// deadline, returning the response fully read into a respBufs buffer.
func (n *Node) send(r *http.Request, target string, body []byte, class opClass) (int, http.Header, *[]byte, error) {
	hdr := make(http.Header, 5)
	for _, name := range []string{"Content-Type", commitIDHeader, traceHeader} {
		if v := r.Header.Get(name); v != "" {
			hdr.Set(name, v)
		}
	}
	hops, _ := strconv.Atoi(r.Header.Get(hopsHeader))
	hdr.Set(hopsHeader, strconv.Itoa(hops+1))
	hdr.Set(forwardedHeader, n.self)
	timeout := writeTimeout
	if class == opRead {
		timeout = readTimeout
	}
	return n.do(r.Context(), timeout, r.Method, target+r.URL.RequestURI(), hdr, body, nil)
}

func relay(w http.ResponseWriter, status int, header http.Header, body []byte) {
	if ct := header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	// The peer's body is complete in hand: relay it whole, not chunked.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // nothing to do about a failed relay
}
