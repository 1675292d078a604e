package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// incarnationHeader and fromHeader fence internal cluster transfers
// (replicate): a message from a peer's previous life, or carrying
// state older than what the receiver already holds, is rejected.
const (
	incarnationHeader = "X-Schedd-Incarnation"
	fromHeader        = "X-Schedd-From"
)

// A replica is a passive copy of another member's session: the sealed
// snapshot bytes as received, read into a sealBufs buffer the replica
// holds a reference to (whatever buffer the pool handed out, grown to
// fit: it may be larger than the bytes), plus their opened form, whose
// platform, basis and commit reports are slices of those bytes. A newer
// snapshot or a drop releases the replica's reference; a promotion
// reading the opened snapshot outside repMu holds one of its own
// (holdReplica), so a receive that displaces the replica meanwhile
// cannot recycle the bytes under it, and the session it installs keeps
// copies (RestoreSession). It costs no solver state — promotion to a
// live warm session happens only when this node becomes (or is asked to
// act as) the session's holder.
type replica struct {
	sb   *sealed
	snap *cluster.SessionSnapshot
}

// replicateAck answers POST /cluster/replicate; the sender verifies
// Checksum against the snapshot it shipped, so a torn or reordered
// transfer can't be mistaken for a durable replica.
type replicateAck struct {
	ID       string `json:"id"`
	Epoch    int    `json:"epoch"`
	Checksum string `json:"checksum"`
}

// forgetMessage asks successors to drop every trace of a deleted
// session (passive replica, live promoted copy, snapshot file) so a
// later promotion can't resurrect it.
type forgetMessage struct {
	ID string `json:"id"`
}

func (n *Node) replicaCount() int {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	return len(n.replicas)
}

func (n *Node) getReplica(id string) *replica {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	return n.replicas[id]
}

// holdReplica is getReplica plus a reference on the replica's bytes,
// taken under repMu; the caller releases it.
func (n *Node) holdReplica(id string) *replica {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	r := n.replicas[id]
	if r != nil {
		r.sb.hold()
	}
	return r
}

// putReplica holds r as the replica of its session, releasing the one
// it displaces.
func (n *Node) putReplica(r *replica) {
	n.repMu.Lock()
	old := n.replicas[r.snap.ID]
	n.replicas[r.snap.ID] = r
	n.repMu.Unlock()
	if old != nil {
		old.sb.release()
	}
}

func (n *Node) dropReplica(id string) {
	n.dropReplicaThrough(id, math.MaxInt)
}

// dropReplicaThrough drops the replica for id only if it is no newer
// than epoch — the post-promotion cleanup, which must not discard a
// fresher replica a concurrent fan-out delivered while the promotion
// was rebuilding.
func (n *Node) dropReplicaThrough(id string, epoch int) {
	n.repMu.Lock()
	r, ok := n.replicas[id]
	if ok && r.snap.Epoch <= epoch {
		delete(n.replicas, id)
	} else {
		r = nil
	}
	n.repMu.Unlock()
	if r != nil {
		r.sb.release()
	}
}

// replicationTargets lists the members that should hold passive
// replicas of id: the first Replication distinct members clockwise
// from the key, minus self. For the owner that is its R−1 successors;
// for a non-owner stuck holding a session after a failed transfer it
// includes the true owner — which repairs the PR 8 hole where such a
// session was reachable only through forwarding and died with its
// holder.
func (n *Node) replicationTargets(id string) []string {
	if n.cfg.Replication <= 1 {
		return nil
	}
	succ := n.currentRing().Successors(id, n.cfg.Replication)
	out := make([]string, 0, len(succ))
	for _, m := range succ {
		if m != n.self {
			out = append(out, m)
		}
	}
	if len(out) > n.cfg.Replication-1 {
		out = out[:n.cfg.Replication-1]
	}
	return out
}

// sealBufs pools sealed-snapshot buffers: a ring commit seals ~41 KiB
// at K = 20 with a full commit record, every destination reads the one
// buffer, and a successor reads what it receives into another.
var sealBufs = sync.Pool{New: func() any { return new([]byte) }}

// sealed is one snapshot's wire bytes in a sealBufs buffer, with a
// reference per holder. On the sending side the holders are the shipper
// and every request body a send opened over the bytes: net/http's
// transport may read a request body after RoundTrip returned and closes
// it once done, so a body releases its reference on Close. On the
// receiving side they are the held replica and a promotion rebuilding
// from it. The buffer goes back to the pool when the last reference
// does, and never while any reader may still see it. A seal's buffer
// starts with the sections its snapshot reads (off bytes: the committed
// answer, when it has a section of its own, the capacities, the basis
// and its weights), then the wire bytes.
type sealed struct {
	buf  *[]byte
	off  int
	refs atomic.Int32
}

// newSealed takes a pooled buffer, emptied, with one reference.
func newSealed() *sealed {
	sb := &sealed{buf: sealBufs.Get().(*[]byte)}
	*sb.buf = (*sb.buf)[:0]
	sb.refs.Store(1)
	return sb
}

func (sb *sealed) bytes() []byte { return (*sb.buf)[sb.off:] }

func (sb *sealed) hold() { sb.refs.Add(1) }

func (sb *sealed) release() {
	if sb.refs.Add(-1) == 0 {
		sealBufs.Put(sb.buf)
	}
}

// body opens one request body over the sealed bytes, holding a
// reference until it is closed.
func (sb *sealed) body() io.ReadCloser {
	sb.hold()
	b := &sealedBody{sb: sb}
	b.Reset(sb.bytes())
	return b
}

// sealedBody is a reader over sealed bytes that releases its reference
// on the first Close. Its WriteTo, promoted from bytes.Reader, writes
// the remaining bytes in one call, which is how io.Copy — and so
// net/http's transport, for a body of undeclared length — sends it.
type sealedBody struct {
	bytes.Reader
	sb     *sealed
	closed atomic.Bool
}

func (b *sealedBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.sb.release()
	}
	return nil
}

// seal serializes sess's committed state once: the snapshot and its
// sealed (versioned, checksummed) wire bytes, in a pooled buffer the
// caller releases. The snapshot's sections — the committed answer, when
// it carries one of its own (an untagged commit's), the capacities, the
// basis and its weights — are written into the head of that buffer off
// the session lock and the wire bytes appended after them, so the
// snapshot reads them while the caller holds the reference. Every
// destination — the store, the ring successors, a new owner — gets these
// same bytes.
func seal(sess *Session) (*cluster.SessionSnapshot, *sealed, error) {
	sb := newSealed()
	snap, buf, err := sess.snapshotInto(*sb.buf)
	*sb.buf = buf
	if err != nil {
		sb.release()
		return nil, nil, err
	}
	sb.off = len(buf)
	if *sb.buf, err = snap.AppendEncode(buf); err != nil {
		sb.release()
		return nil, nil, err
	}
	return snap, sb, nil
}

// ship persists and replicates sess's committed state: the pool's
// session hook (creation, epoch commits, arrivals at a new owner) and
// the body of the periodic PersistAll. It runs synchronously, so a commit
// is acked to the client only after its snapshot was offered to the
// store and the ring successors. No failure here fails the commit: a
// snapshot that cannot be sealed or saved is logged, a successor that
// does not ack is counted in ReplicaErrors and degrades the session's
// ReplicationLag. A node with no store and no replication target (a
// standalone schedd) has nowhere to ship, and seals nothing.
//
// Two ships of one session — a commit's and PersistAll's — are not
// ordered by the session lock, so a ship whose snapshot is older than
// one already shipped skips its save and its sends: the store never
// goes back an epoch behind an acked commit. One at an equal epoch
// still saves and sends, which is PersistAll's repair.
func (n *Node) ship(sess *Session) {
	targets := n.replicationTargets(sess.id)
	if n.store == nil && len(targets) == 0 {
		return
	}
	snap, sb, err := seal(sess)
	if err != nil {
		n.srv.Logger().Warn("snapshot not sealed", "session", sess.id, "err", err)
		return
	}
	defer sb.release()
	sess.shipMu.Lock()
	if snap.Epoch < sess.shipped {
		sess.shipMu.Unlock()
		return
	}
	sess.shipped = snap.Epoch
	if n.store != nil {
		if err := n.store.Save(snap.ID, sb.bytes()); err != nil {
			n.srv.Logger().Warn("snapshot not persisted", "session", snap.ID, "err", err)
		} else {
			n.snapshotBytes.Add(uint64(len(sb.bytes())))
		}
	}
	sess.shipMu.Unlock()
	n.replicateOut(snap, sb, targets)
}

// install is the one way a snapshot becomes a live session here —
// recovery and replica promotion, an ownership transfer's included:
// rebuild warm, install into the pool (which ships it onward through
// the session hook), count the rebuild's temperature.
func (n *Node) install(snap *cluster.SessionSnapshot) (bool, error) {
	sess, _, warm, err := RestoreSession(snap)
	if err != nil {
		return false, err
	}
	n.srv.Pool().Install(sess)
	if warm {
		n.warmRebuilds.Add(1)
	} else {
		n.coldRebuilds.Add(1)
	}
	return warm, nil
}

// readSnapshot reads an inbound snapshot body, bounded, into a pooled
// buffer and opens it strictly (version, checksum, completeness, the
// basis validated in place — fail closed), answering 400 itself on
// failure. The snapshot aliases the returned buffer, whose one
// reference the caller holds.
func readSnapshot(w http.ResponseWriter, r *http.Request) (*cluster.SessionSnapshot, *sealed, bool) {
	sb := newSealed()
	var err error
	if *sb.buf, err = readBounded(*sb.buf, r.Body, r.ContentLength); err != nil {
		sb.release()
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading snapshot: %w", err))
		return nil, nil, false
	}
	snap, err := cluster.DecodeSnapshot(sb.bytes())
	if err != nil {
		sb.release()
		writeError(w, http.StatusBadRequest, err)
		return nil, nil, false
	}
	return snap, sb, true
}

// replicateOut fans the sealed snapshot to targets (the ring
// successors) and verifies each ack's checksum. It runs synchronously inside the
// session-commit hook — before the client's HTTP response is written
// — so an acked commit is always either replicated or counted in
// ReplicaErrors; there is no window where an ack implies durability
// the cluster doesn't have.
func (n *Node) replicateOut(snap *cluster.SessionSnapshot, sb *sealed, targets []string) {
	if len(targets) == 0 {
		return
	}
	failed := 0
	for _, target := range targets {
		start := time.Now()
		err := n.sendReplica(target, snap, sb)
		n.fanout.Observe(time.Since(start))
		if err != nil {
			n.replicaErrors.Add(1)
			failed++
			continue
		}
		n.replicasSent.Add(1)
	}
	n.lastFanout.Store(snap.ID, fanoutRecord{targets: len(targets), failed: failed, at: time.Now()})
}

func (n *Node) sendReplica(target string, snap *cluster.SessionSnapshot, sb *sealed) error {
	hdr := make(http.Header, 3)
	hdr.Set(fromHeader, n.self)
	hdr.Set(incarnationHeader, strconv.FormatUint(n.membership.Incarnation(), 10))
	var ack replicateAck
	if err := n.call(target, "/cluster/replicate", transferTimeout, hdr, sb.bytes(), sb, &ack); err != nil {
		return fmt.Errorf("replicate %s: %w", snap.ID, err)
	}
	if ack.Checksum != snap.Checksum {
		return fmt.Errorf("replicate %s to %s: ack checksum %q != sent %q", snap.ID, target, ack.Checksum, snap.Checksum)
	}
	return nil
}

// handleReplicate receives a sealed snapshot, the one way a session
// arrives from another member (DESIGN.md "Cluster control plane"). The
// snapshot is read and decoded strictly (readSnapshot), then fenced two
// ways before it can displace anything: a sender incarnation below the
// freshest one known for that peer marks a message from a previous
// life, and a snapshot epoch below what this node already holds
// (replica or live) marks state the cluster has moved past — a
// partitioned old owner's late fan-out hits both. What passes is held
// as a passive replica, unless this node's ring makes it the session's
// owner: then it is promoted before the ack, since a sender handing the
// session over deletes its own copy on that ack.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	snap, sb, ok := readSnapshot(w, r)
	if !ok {
		return
	}
	refuse := func(err error) {
		sb.release()
		writeError(w, http.StatusConflict, err)
	}
	if from := r.Header.Get(fromHeader); from != "" {
		inc, _ := strconv.ParseUint(r.Header.Get(incarnationHeader), 10, 64)
		if known := n.membership.KnownIncarnation(from); inc < known {
			refuse(fmt.Errorf("replica of %s from %s: stale incarnation %d < %d", snap.ID, from, inc, known))
			return
		}
		// A replica push is direct evidence the sender is alive.
		n.membership.ObserveAck(from, inc, time.Now())
	}
	if held := n.getReplica(snap.ID); held != nil && snap.Epoch < held.snap.Epoch {
		refuse(fmt.Errorf("replica of %s: epoch %d below held %d", snap.ID, snap.Epoch, held.snap.Epoch))
		return
	}
	ack := replicateAck{ID: snap.ID, Epoch: snap.Epoch, Checksum: snap.Checksum}
	owner := n.currentRing().Owner(snap.ID) == n.self
	if live := n.srv.Pool().Get(snap.ID); live != nil {
		liveEpoch := live.Info().Epoch
		switch {
		case snap.Epoch < liveEpoch:
			refuse(fmt.Errorf("replica of %s: epoch %d below live %d", snap.ID, snap.Epoch, liveEpoch))
			return
		case snap.Epoch > liveEpoch:
			// The cluster committed past our live copy. Epochs only
			// advance through commits, so a higher snapshot epoch is
			// proof our session missed some — whether we promoted
			// during a suspicion that turned out false, or we are a
			// resurrected owner whose sessions moved on while peers
			// had us confirmed dead. Either way the snapshot is
			// authoritative even if the ring says the session is ours:
			// drop the stale live session and take the snapshot's.
			n.srv.Pool().Evict(snap.ID)
		case owner:
			// Already serving this state: nothing to hold.
			sb.release()
			n.dropReplica(snap.ID)
			writeJSON(w, http.StatusOK, ack)
			return
		}
	}
	n.putReplica(&replica{sb: sb, snap: snap})
	if owner {
		if err := n.promoteIfReplica(snap.ID); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleForget drops every trace of a deleted session.
func (n *Node) handleForget(w http.ResponseWriter, r *http.Request) {
	var msg forgetMessage
	if !readBody(w, r, func(b []byte) error { return decodeJSON(b, &msg) }) {
		return
	}
	if msg.ID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("forget: empty id"))
		return
	}
	n.dropReplica(msg.ID)
	n.srv.Pool().Evict(msg.ID)
	n.lastFanout.Delete(msg.ID)
	if n.store != nil {
		n.store.Delete(msg.ID) //nolint:errcheck
	}
	writeJSON(w, http.StatusOK, forgetMessage{ID: msg.ID})
}

// forgetSession cleans up after a local DELETE: drop the snapshot
// file and replica here, and tombstone the session at every member
// that might hold a copy. The fan-out goes to every known member —
// not just the current replication targets — because membership
// changes strand replicas on former successors, and a later ring
// change could otherwise resurrect the deleted session from one of
// them via promoteOwned. Deletes are rare; the extra sends are cheap,
// and they go out at once, so one slow member holds the DELETE at most
// one writeTimeout.
func (n *Node) forgetSession(id string) {
	n.dropReplica(id)
	n.lastFanout.Delete(id)
	if n.store != nil {
		n.store.Delete(id) //nolint:errcheck
	}
	data, err := json.Marshal(forgetMessage{ID: id})
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for _, target := range n.membership.Known() {
		if target != n.self {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.call(target, "/cluster/forget", writeTimeout, nil, data, nil, nil) //nolint:errcheck // best effort: an unreachable member has nothing to resurrect from while it is down
			}()
		}
	}
	wg.Wait()
}

// promoteIfReplica turns a passive replica into a live warm session
// when this node is asked to serve it (ownership moved here, a transfer
// arrived, a read failed over here, or a forwarded request landed
// here). Promotion is serialized: concurrent requests for the same
// session promote once.
// The passive copy is consumed by a successful promotion: once the
// session is live here, replication fan-out excludes self, so a kept
// replica would freeze at the promotion-time epoch and — were the pool
// ever to evict the live session — reinstall that stale state over
// committed epochs. The store snapshot (refreshed by the commit hook)
// is also consulted, preferring whichever source is at the higher
// epoch, so a replica parked before this node last owned the session
// can never roll back the store's fresher history. It reports a
// promotion that failed.
func (n *Node) promoteIfReplica(id string) error {
	rep := n.holdReplica(id)
	if rep == nil {
		return nil
	}
	defer rep.sb.release() // install copies what the live session keeps
	n.promoteMu.Lock()
	defer n.promoteMu.Unlock()
	if n.srv.Pool().Get(id) != nil {
		return nil // lost the race: someone else promoted (or it was live all along)
	}
	snap := rep.snap
	if n.store != nil {
		if stored, err := n.store.Load(id); err == nil && stored.Epoch > snap.Epoch {
			snap = stored
		}
	}
	if _, err := n.install(snap); err != nil {
		n.replicaErrors.Add(1)
		n.dropReplica(id) // fail closed: never install from damaged state
		return fmt.Errorf("promoting %s: %w", id, err)
	}
	n.dropReplicaThrough(id, snap.Epoch) // the live session supersedes the passive copy
	n.promotions.Add(1)
	return nil
}

// promoteOwned promotes every replica the ring (after a membership
// change) assigns to this node — the moment a death is confirmed, the
// dead member's sessions come warm out of their successors' replicas
// with zero cold solves.
func (n *Node) promoteOwned(ring *cluster.Ring) {
	n.repMu.Lock()
	var ids []string
	for id := range n.replicas {
		if ring.Owner(id) == n.self {
			ids = append(ids, id)
		}
	}
	n.repMu.Unlock()
	for _, id := range ids {
		n.promoteIfReplica(id)
	}
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.Stats())
}

// Stats is the pool's /stats response with the node's forwarding and
// replication counters filled in.
func (n *Node) Stats() PoolStatsResponse {
	resp := n.srv.Stats()
	resp.Cluster.Retries = n.retries.Value()
	resp.Cluster.Failovers = n.failovers.Value()
	resp.Cluster.ReplicasSent = n.replicasSent.Value()
	resp.Cluster.ReplicaErrors = n.replicaErrors.Value()
	return resp
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
		w, rerr := n.install(snap)
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

// defaultTransport pools connections per peer: the mesh talks to a
// handful of stable base URLs, so idle keep-alives per host are cheap
// and save a dial per forward. MaxIdleConnsPerHost keeps one slow peer
// from monopolizing the default transport's tiny (2) per-host idle
// pool and forcing re-dials everywhere else.
func defaultTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 32
	t.IdleConnTimeout = 90 * time.Second
	return t
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
