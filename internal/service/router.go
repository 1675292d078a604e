package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
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

// incarnationHeader and epochHeader fence internal cluster transfers
// (replicate): a message from a peer's previous life, or carrying
// state older than what the receiver already holds, is rejected.
const (
	incarnationHeader = "X-Schedd-Incarnation"
	fromHeader        = "X-Schedd-From"
)

// commitIDHeader tags every epoch commit with an idempotency ID (set
// by the first ring member that sees the request, preserved across
// forwards and retries). The serving session records the last applied
// (ID, report) pair — carried in its snapshot, so it survives
// failover — and answers a retry of an applied commit with the
// recorded report. This is what makes commit retries safe even when a
// send died mid-flight and may or may not have been applied.
const commitIDHeader = "X-Schedd-Commit-ID"

// NodeConfig tunes a ring node's replication, failure detection and
// forwarding behavior. The zero value takes every default, which
// reproduces the static-membership behavior plus replication factor
// 2: heartbeats only run after an explicit Start, so a config that
// never starts the loop never suspects anyone.
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
	// (see cluster.MembershipConfig).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Incarnation seeds this member's incarnation; 0 derives one from
	// the wall clock so a restart outranks the previous life.
	Incarnation uint64

	// Per-operation deadlines: ReadTimeout bounds health probes and
	// forwarded reads (query/what-if/batch/GET), WriteTimeout bounds
	// forwarded creates, epoch commits and the small /cluster/* control
	// messages (migrate and replicate transfers get transferTimeout).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// RetryAttempts bounds the forwarding loop's tries per request
	// (failovers included); backoff between full candidate cycles
	// grows RetryBase, RetryBase*2, ... capped at RetryCap, each with
	// equal jitter (half fixed, half random). RetrySeed seeds the
	// jitter RNG; 0 uses wall-clock.
	RetryAttempts int
	RetryBase     time.Duration
	RetryCap      time.Duration
	RetrySeed     int64

	// Transport overrides the HTTP transport for all outbound cluster
	// traffic (the chaos harness injects here); nil uses a pooled
	// transport tuned for a small mesh of long-lived peers.
	Transport http.RoundTripper
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 15 * time.Second
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 8
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Second
	}
	return c
}

// transferTimeout bounds one snapshot transfer (migrate, replicate).
const transferTimeout = 30 * time.Second

// defaultTransport pools connections per peer: the mesh talks to a
// handful of stable base URLs, so idle keep-alives per host are cheap
// and save a dial per forward. MaxIdleConnsPerHost is the fix for the
// PR 8 failure mode where one slow peer could monopolize the default
// transport's tiny (2) per-host idle pool and force re-dials
// everywhere else.
func defaultTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 32
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// Node wraps a Server in the cluster role: consistent-hash routing of
// session traffic to its ring owner with retry, backoff and successor
// failover; snapshot replication to ring successors on every commit;
// heartbeat-driven failure detection that promotes replicas on a
// confirmed death; session migration on membership change; snapshot
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

// NewNode makes srv a ring member with the default NodeConfig —
// static membership (until Start), replication factor 2. Kept as the
// common constructor; NewNodeWithConfig exposes the full surface.
func NewNode(srv *Server, self string, peers []string, store *cluster.Store) *Node {
	return NewNodeWithConfig(srv, self, peers, store, NodeConfig{})
}

// NewNodeWithConfig makes srv a ring member advertised as self (a
// base URL, e.g. "http://10.0.0.3:8080"), with peers as the initial
// member list (self is always included) and store as the snapshot
// directory for crash recovery — nil disables persistence. The pool's
// session hook persists and replicates every committed state change
// (creation, epoch commit, migration arrival) synchronously, so a
// commit is acked to the client only after its snapshot reached the
// store and the ring successors.
func NewNodeWithConfig(srv *Server, self string, peers []string, store *cluster.Store, cfg NodeConfig) *Node {
	cfg = cfg.withDefaults()
	transport := cfg.Transport
	if transport == nil {
		transport = defaultTransport()
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	now := time.Now()
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
			Incarnation:  cfg.Incarnation,
		}, now),
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

// Self returns this replica's advertised URL.
func (n *Node) Self() string { return n.self }

func (n *Node) currentRing() *cluster.Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Members returns the current (non-dead) member list.
func (n *Node) Members() []string { return n.currentRing().Members() }

// Handler returns the node's route table: the cluster control
// endpoints, the /stats interception that adds the cluster section,
// and the owner-routing wrapper around the plain service routes.
func (n *Node) Handler() http.Handler {
	inner := n.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/members", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, membersMessage{Members: n.Members()})
	})
	mux.HandleFunc("POST /cluster/members", n.handleSetMembers)
	mux.HandleFunc("POST /cluster/join", n.handleJoin)
	mux.HandleFunc("POST /cluster/migrate", n.handleMigrate)
	mux.HandleFunc("POST /cluster/replicate", n.handleReplicate)
	mux.HandleFunc("POST /cluster/forget", n.handleForget)
	mux.HandleFunc("POST /cluster/health", n.handleHealth)
	mux.HandleFunc("GET /stats", n.handleStats)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.Handle("GET /metrics", n.srv.Registry().Handler())
	mux.Handle("/", n.routed(inner))
	return n.srv.instrument(mux)
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

func classify(method, path string) opClass {
	id, sub, ok := sessionPath(path)
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

// timeoutFor maps an operation class to its forwarding deadline.
func (n *Node) timeoutFor(class opClass) time.Duration {
	if class == opRead {
		return n.cfg.ReadTimeout
	}
	return n.cfg.WriteTimeout
}

// routed forwards session traffic to its ring owner (with retry and
// successor failover); everything else — and everything this replica
// owns or was explicitly forwarded — is served by the inner handler.
func (n *Node) routed(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _, ok := sessionPath(r.URL.Path)
		if !ok {
			inner.ServeHTTP(w, r)
			return
		}
		class := classify(r.Method, r.URL.Path)
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
		key, body, ok := n.routingKey(r, id)
		if body != nil {
			// The body was consumed to compute the key; hand the
			// buffered copy to whoever serves the request.
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		if !ok {
			inner.ServeHTTP(w, r) // let the service produce the error
			return
		}
		if body == nil && r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodDelete {
			// Buffer the body once so retries can re-send it.
			var err error
			body, err = readBounded(nil, r.Body, r.ContentLength)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		n.route(w, r, inner, class, id, key, body)
	})
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

// candidates lists the members to try for key, best first: commits go
// to the owner only; reads and creates may fail over along the
// replication chain (the ring successors holding the key's replicas),
// with suspected members moved behind the others so the common case
// skips a peer that is probably down without waiting to confirm it.
func (n *Node) candidates(key string, class opClass) []string {
	ring := n.currentRing()
	if class == opCommit {
		if owner := ring.Owner(key); owner != "" {
			return []string{owner}
		}
		return nil
	}
	width := n.cfg.Replication
	if width < 1 {
		width = 1
	}
	succ := ring.Successors(key, width)
	var healthy, suspect []string
	for _, m := range succ {
		if st, known := n.membership.State(m); known && st != cluster.StateAlive {
			suspect = append(suspect, m)
			continue
		}
		healthy = append(healthy, m)
	}
	return append(healthy, suspect...)
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

// backoff returns the sleep before retry cycle (1-based) with equal
// jitter: half the capped exponential step fixed, half random. The
// fixed half guarantees the total retry window actually spans the
// failure detector's confirmation time instead of collapsing to
// near-zero on an unlucky jitter draw.
func (n *Node) backoff(cycle int) time.Duration {
	d := n.cfg.RetryBase << (cycle - 1)
	if d > n.cfg.RetryCap || d <= 0 {
		d = n.cfg.RetryCap
	}
	half := d / 2
	n.rngMu.Lock()
	j := time.Duration(n.rng.Int63n(int64(half) + 1))
	n.rngMu.Unlock()
	return half + j
}

// route drives the forwarding loop: recompute the candidate list each
// attempt (the ring may recompute under us — exactly what we want
// while a death is being confirmed), forward, and on failure retry
// per the operation's contract. Serving locally is a terminal state:
// the ring says the session is (now) ours.
func (n *Node) route(w http.ResponseWriter, r *http.Request, inner http.Handler, class opClass, id, key string, body []byte) {
	n.forwarded.Add(1)
	ti := requestTrace(r)
	var lastErr error
	cycleAllHTTP := true
	for attempt := 0; attempt < n.cfg.RetryAttempts; attempt++ {
		if ti != nil {
			ti.attempts = attempt + 1
		}
		cands := n.candidates(key, class)
		if len(cands) == 0 {
			n.serveLocal(w, r, inner, class, id)
			return
		}
		idx := attempt % len(cands)
		if idx == 0 && attempt > 0 {
			// A full candidate cycle failed; back off before the next.
			slept := n.backoff(attempt / len(cands))
			time.Sleep(slept)
			if ti != nil {
				ti.backoff += slept
			}
			cycleAllHTTP = true
		}
		target := cands[idx]
		if target == n.self {
			n.serveLocal(w, r, inner, class, id)
			return
		}
		if attempt > 0 {
			n.retries.Add(1)
			if idx != 0 {
				n.failovers.Add(1)
			}
		}
		if ti != nil {
			ti.target = target
			if idx == 0 {
				ti.decision = "owner"
			} else {
				ti.decision = "failover"
			}
		}
		status, header, resp, err := n.send(r, target, body, n.timeoutFor(class))
		if err != nil {
			// Transport errors retry for every class: reads and creates
			// are idempotent by nature, commits by their idempotency tag
			// (a retry of an applied commit is answered from the dedup
			// record, never re-applied).
			lastErr = err
			cycleAllHTTP = false
			continue
		}
		switch {
		case class == opCommit && status == http.StatusServiceUnavailable:
			// A fenced (or not-yet-ready) peer rejected the commit
			// without applying it: safe to retry against the ring's
			// current owner.
			releaseResp(resp)
			lastErr = fmt.Errorf("%s answered %d", target, status)
			continue
		case class != opCommit && (status == http.StatusNotFound || status == http.StatusServiceUnavailable):
			// This holder doesn't have the session (yet); another
			// candidate might. But if a full cycle produced only HTTP
			// answers — every holder is reachable and none has it —
			// the 404 is genuine; relay instead of burning retries.
			if cycleAllHTTP && idx == len(cands)-1 {
				relay(w, status, header, *resp)
				releaseResp(resp)
				return
			}
			releaseResp(resp)
			lastErr = fmt.Errorf("%s answered %d", target, status)
			continue
		}
		relay(w, status, header, *resp)
		releaseResp(resp)
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Errorf("forwarding %s %s: retries exhausted: %w", r.Method, r.URL.Path, lastErr))
}

// respBufs pools the buffers peer response bodies are read into; a
// buffer grown past maxPooledResp by an outsized answer is left to the
// collector rather than kept.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 1 << 20

// releaseResp returns a response buffer from do to respBufs. Nothing
// may hold the bytes past it.
func releaseResp(bp *[]byte) {
	if bp != nil && cap(*bp) <= maxPooledResp {
		respBufs.Put(bp)
	}
}

// do is the one outbound HTTP call of the package: it owns the
// deadline, the request build, client.Do, and the full read of the
// peer's response — bounded at maxBodyBytes like every inbound body, so
// the deadline covers the body and a retry never holds a half-read
// connection — and the close. The body is sent from body, or, when sb
// is set, from its sealed bytes, each request body holding a reference
// until the transport closes it. The response body is read into a
// respBufs buffer the caller hands to releaseResp once it has relayed
// or decoded it.
func (n *Node) do(ctx context.Context, timeout time.Duration, method, url string, header http.Header, body []byte, sb *sealed) (int, http.Header, *[]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if sb == nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if sb != nil {
		// Sealed bytes go without a declared length: the transport then
		// sends them chunked through the body's WriteTo, one write of the
		// whole buffer, where a Content-Length would have it copy them
		// through a LimitedReader and a fresh 32 KiB buffer per send.
		req.Body = sb.body()
		req.GetBody = func() (io.ReadCloser, error) { return sb.body(), nil }
	}
	req.Header = header
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	bp := respBufs.Get().(*[]byte)
	if *bp, err = readBounded(*bp, resp.Body, resp.ContentLength); err != nil {
		releaseResp(bp)
		return 0, nil, nil, fmt.Errorf("reading response from %s: %w", url, err)
	}
	return resp.StatusCode, resp.Header, bp, nil
}

// call posts one JSON /cluster/* control message to peer — body, or
// sb's sealed bytes when sb is set — and decodes its 200 answer into
// out (nil discards it); any other status is an error. hdr carries
// extra headers and may be nil.
func (n *Node) call(peer, path string, timeout time.Duration, hdr http.Header, body []byte, sb *sealed, out any) error {
	if hdr == nil {
		hdr = make(http.Header, 1)
	}
	hdr.Set("Content-Type", "application/json")
	status, _, bp, err := n.do(context.Background(), timeout, http.MethodPost, peer+path, hdr, body, sb)
	if err != nil {
		return err
	}
	defer releaseResp(bp)
	if status != http.StatusOK {
		return fmt.Errorf("%s%s: status %d: %.200s", peer, path, status, *bp)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(*bp, out); err != nil {
		return fmt.Errorf("%s%s: decoding answer: %w", peer, path, err)
	}
	return nil
}

// send forwards the request once to target under a per-operation
// deadline, returning the response fully read into a respBufs buffer.
func (n *Node) send(r *http.Request, target string, body []byte, timeout time.Duration) (int, http.Header, *[]byte, error) {
	hdr := make(http.Header, 5)
	for _, name := range []string{"Content-Type", commitIDHeader, traceHeader} {
		if v := r.Header.Get(name); v != "" {
			hdr.Set(name, v)
		}
	}
	hops, _ := strconv.Atoi(r.Header.Get(hopsHeader))
	hdr.Set(hopsHeader, strconv.Itoa(hops+1))
	hdr.Set(forwardedHeader, n.self)
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

// routingKey derives the ring key for a session request: the session
// ID from the path, or — for POST /sessions — the ID the create will
// resolve to, computed from the decoded body exactly as the pool
// does. ok=false means the request has no routable key (the list
// endpoint, or an undecodable create) and is served locally, so the
// service produces the error; body is non-nil whenever the request body
// was consumed.
func (n *Node) routingKey(r *http.Request, id string) (key string, body []byte, ok bool) {
	if id != "" {
		return id, nil, true
	}
	if r.Method != http.MethodPost {
		return "", nil, false // GET /sessions lists local sessions
	}
	body, err := readBounded(nil, r.Body, r.ContentLength)
	if err != nil {
		return "", body, false
	}
	var req CreateSessionRequest
	if json.Unmarshal(body, &req) != nil {
		return "", body, false
	}
	_, _, key, err = decodeCreate(&req)
	return key, body, err == nil
}

// membersMessage is the wire form of a full member list (broadcast on
// membership change, and the join response).
type membersMessage struct {
	Members []string `json:"members"`
}

// joinRequest announces a new member to a seed node.
type joinRequest struct {
	Member string `json:"member"`
}

// migrateResponse answers POST /cluster/migrate.
type migrateResponse struct {
	ID   string `json:"id"`
	Warm bool   `json:"warm"`
	// Report is the rebuilt session's committed answer, so the sender
	// can verify bit-compatibility before dropping its copy.
	Report *SolveReport `json:"report"`
}

// SetMembers installs a new member list (self is always included),
// rebuilds the ring, and synchronously migrates away every local
// session the new ring assigns elsewhere. A failed transfer keeps the
// session local — it stays reachable through forwarding.
func (n *Node) SetMembers(members []string) {
	n.membership.SetPeers(members, time.Now())
	n.syncRing()
}

// syncRing rebuilds the ring from the membership's non-dead member
// set. On a change it promotes every replica the new ring assigns to
// this node (the failover path: a confirmed death lands here) and
// rebalances live sessions the new ring assigns elsewhere (the
// join/revival path).
func (n *Node) syncRing() {
	ring := cluster.NewRing(n.membership.Active(), 0)
	n.mu.Lock()
	old := n.ring
	n.ring = ring
	n.mu.Unlock()
	if slices.Equal(old.Members(), ring.Members()) {
		return
	}
	n.logRingChange(old.Members(), ring.Members())
	n.promoteOwned(ring)
	n.rebalance(ring)
}

// rebalance ships every local session whose owner under ring is some
// other member: snapshot → POST /cluster/migrate → on success evict
// the local copy and its snapshot file.
func (n *Node) rebalance(ring *cluster.Ring) {
	for _, sess := range n.srv.Pool().Sessions() {
		owner := ring.Owner(sess.id)
		if owner == "" || owner == n.self {
			continue
		}
		if err := n.migrate(sess, owner); err != nil {
			continue // keep serving locally; forwarding still finds us
		}
	}
}

func (n *Node) migrate(sess *Session, owner string) error {
	_, sb, err := seal(sess)
	if err != nil {
		return err
	}
	defer sb.release()
	if err := n.call(owner, "/cluster/migrate", transferTimeout, nil, nil, sb, nil); err != nil {
		return fmt.Errorf("migrate %s: %w", sess.id, err)
	}
	n.srv.Pool().Evict(sess.id)
	if n.store != nil {
		n.store.Delete(sess.id) //nolint:errcheck // best effort: a stale file is re-skipped at recovery
	}
	n.lastFanout.Delete(sess.id)
	n.migrations.Add(1)
	return nil
}

func (n *Node) handleSetMembers(w http.ResponseWriter, r *http.Request) {
	var msg membersMessage
	if !decodeBody(w, r, &msg) {
		return
	}
	n.SetMembers(msg.Members)
	writeJSON(w, http.StatusOK, membersMessage{Members: n.Members()})
}

// handleJoin admits a new member: union it into the member list,
// broadcast the full list to every member (best effort — the joiner
// also gets it in the response), and answer with the list.
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Member == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("join: empty member"))
		return
	}
	members := append(n.Members(), req.Member)
	n.SetMembers(members)
	full := n.Members()
	for _, m := range full {
		if m == n.self || m == req.Member {
			continue // self already applied; the joiner applies the response
		}
		n.broadcastMembers(m, full)
	}
	writeJSON(w, http.StatusOK, membersMessage{Members: full})
}

func (n *Node) broadcastMembers(member string, members []string) {
	data, err := json.Marshal(membersMessage{Members: members})
	if err != nil {
		return
	}
	n.call(member, "/cluster/members", n.cfg.WriteTimeout, nil, data, nil, nil) //nolint:errcheck // best effort: the heartbeats converge membership anyway
}

// handleMigrate receives a session from another replica: verify the
// snapshot, rebuild warm, install into the pool (which persists and
// replicates it through the session hook), and answer with the
// rebuilt committed report.
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	snap, sb, ok := readSnapshot(w, r)
	if !ok {
		return
	}
	defer sb.release() // install copies what the live session keeps
	if live := n.srv.Pool().Get(snap.ID); live != nil && live.Info().Epoch >= snap.Epoch {
		// Our live copy is at least as far along as the incoming one —
		// installing it would erase committed epochs. This happens when
		// a holder rebalances after a false death confirmation healed:
		// both sides applied commits during the split, and the longer
		// (or equal, in which case ours — we are the owner the sender
		// is shipping to) history wins. The sender keeps its copy; the
		// next commit's replication fan-out evicts it as stale.
		writeError(w, http.StatusConflict,
			fmt.Errorf("migrate %s: live epoch %d >= incoming %d", snap.ID, live.Info().Epoch, snap.Epoch))
		return
	}
	sess, rep, warm, err := n.install(snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("rebuilding session: %w", err))
		return
	}
	n.dropReplica(snap.ID) // the live session supersedes any passive copy
	writeJSON(w, http.StatusOK, migrateResponse{ID: sess.id, Warm: warm, Report: rep})
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.Stats())
}

// Stats is the pool's /stats response with the node's cluster
// counters and ring view filled in.
func (n *Node) Stats() PoolStatsResponse {
	resp := n.srv.Stats()
	resp.Cluster.Forwarded = n.forwarded.Value()
	resp.Cluster.Migrations = n.migrations.Value()
	resp.Cluster.WarmRebuilds = n.warmRebuilds.Value()
	resp.Cluster.ColdRebuilds = n.coldRebuilds.Value()
	resp.Cluster.SnapshotBytes = n.snapshotBytes.Value()
	resp.Cluster.Replication = n.cfg.Replication
	resp.Cluster.Retries = n.retries.Value()
	resp.Cluster.Failovers = n.failovers.Value()
	resp.Cluster.Promotions = n.promotions.Value()
	resp.Cluster.ReplicasHeld = n.replicaCount()
	resp.Cluster.ReplicasSent = n.replicasSent.Value()
	resp.Cluster.ReplicaErrors = n.replicaErrors.Value()
	resp.Cluster.FencedCommits = n.fencedCommits.Value()
	resp.Cluster.RoutingLoops = n.routingLoops.Value()
	resp.Cluster.Incarnation = n.membership.Incarnation()
	resp.Cluster.PeersAlive, resp.Cluster.PeersSuspect, resp.Cluster.PeersDead = n.membership.Counts()
	resp.Cluster.Self = n.self
	resp.Cluster.Members = n.Members()
	return resp
}

// Join announces this replica to a seed member and adopts the member
// list the seed answers with (the seed also broadcasts it to the rest
// of the ring). Sessions the new ring assigns to this replica migrate
// over as each current holder rebalances.
func (n *Node) Join(seed string) error {
	data, err := json.Marshal(joinRequest{Member: n.self})
	if err != nil {
		return err
	}
	var msg membersMessage
	if err := n.call(seed, "/cluster/join", n.cfg.WriteTimeout, nil, data, nil, &msg); err != nil {
		return fmt.Errorf("joining %s: %w", seed, err)
	}
	n.SetMembers(msg.Members)
	return nil
}

// Recover rebuilds every decodable session snapshot in the store,
// installing each into the pool warm. Corrupt snapshots are skipped
// (their sessions rebuild cold from traffic later); the return counts
// warm rebuilds, cold rebuilds and skipped files.
func (n *Node) Recover() (warm, cold, skipped int, err error) {
	if n.store == nil {
		return 0, 0, 0, nil
	}
	snaps, sk, err := n.store.LoadAll()
	if err != nil {
		return 0, 0, 0, err
	}
	skipped = sk
	for _, snap := range snaps {
		_, _, w, rerr := n.install(snap)
		switch {
		case rerr != nil:
			skipped++
		case w:
			warm++
		default:
			cold++
		}
	}
	return warm, cold, skipped, nil
}

// PersistAll snapshots every live session to the store and re-fans
// replicas to the ring successors — the periodic persistence tick and
// the graceful-shutdown flush — then garbage-collects snapshot files
// whose session is neither live here nor held as a replica.
func (n *Node) PersistAll() {
	for _, sess := range n.srv.Pool().Sessions() {
		n.ship(sess)
	}
	if n.store != nil {
		live := make(map[string]bool)
		for _, sess := range n.srv.Pool().Sessions() {
			live[sess.id] = true
		}
		n.repMu.Lock()
		for id := range n.replicas {
			live[id] = true
		}
		n.repMu.Unlock()
		n.store.Sweep(func(id string) bool { return live[id] }) //nolint:errcheck // best-effort GC
	}
}
