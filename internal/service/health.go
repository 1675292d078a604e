package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
)

func (n *Node) currentRing() *cluster.Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Members returns the current (non-dead) member list.
func (n *Node) Members() []string { return n.currentRing().Members() }

// healthMessage is both sides of the /cluster/health exchange: the
// sender's identity and incarnation plus its full membership view,
// piggybacked SWIM-style so suspicion, confirmation and refutation
// spread with the heartbeats instead of needing their own protocol.
type healthMessage struct {
	From        string             `json:"from"`
	Incarnation uint64             `json:"incarnation"`
	Views       []cluster.PeerView `json:"views"`
}

// handleHealth answers a heartbeat: record the probe as direct
// evidence the prober is alive, merge its gossiped view (adopting
// fresher suspicions/deaths, refuting accusations against self), and
// answer with our own view. A merge that changes the member set
// rebuilds the ring immediately — this is how a death confirmed by
// one member propagates promotion everywhere within one probe round.
func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	var msg healthMessage
	if !decodeBody(w, r, &msg) {
		return
	}
	now := time.Now()
	changed := n.membership.ObserveAck(msg.From, msg.Incarnation, now)
	if n.membership.Merge(msg.Views, now) {
		changed = true
	}
	if changed {
		n.syncRing()
	}
	writeJSON(w, http.StatusOK, healthMessage{
		From:        n.self,
		Incarnation: n.membership.Incarnation(),
		Views:       n.membership.View(),
	})
}

// healthTimeout bounds one probe: tight enough that a hung peer
// can't stall the loop past a few probe intervals, never above the
// general read deadline.
func (n *Node) healthTimeout() time.Duration {
	t := readTimeout
	if n.cfg.Heartbeat > 0 && 3*n.cfg.Heartbeat < t {
		t = 3 * n.cfg.Heartbeat
	}
	if t < 50*time.Millisecond {
		t = 50 * time.Millisecond
	}
	return t
}

// probe sends one heartbeat to peer and folds the answer in. Failures
// are deliberately silent: silence is the signal, and Tick turns it
// into suspicion on schedule. The ack is timestamped when the answer
// arrives, not at round start — reusing the round-start clock would
// backdate lastAck by up to the probe timeout every round, enough to
// push a consistently slow-but-alive peer over an aggressive
// SuspectAfter.
func (n *Node) probe(peer string) bool {
	msg := healthMessage{
		From:        n.self,
		Incarnation: n.membership.Incarnation(),
		Views:       n.membership.View(),
	}
	data, err := json.Marshal(msg)
	if err != nil {
		return false
	}
	sent := time.Now()
	var ans healthMessage
	if n.call(peer, "/cluster/health", n.healthTimeout(), nil, data, nil, &ans) != nil {
		return false
	}
	now := time.Now()
	n.hbRTT.With(peerLabel(peer)).Set(now.Sub(sent).Seconds())
	changed := n.membership.ObserveAck(peer, ans.Incarnation, now)
	if n.membership.Merge(ans.Views, now) {
		changed = true
	}
	return changed
}

// Start launches the failure-detection loop: every Heartbeat, probe
// every known peer (dead ones included — a restarted peer announces
// its new incarnation through the probe and rejoins the ring), then
// advance the suspect/dead timeouts. No-op when Heartbeat <= 0
// (static membership) or the loop already runs.
func (n *Node) Start() {
	if n.cfg.Heartbeat <= 0 || !n.started.CompareAndSwap(false, true) {
		return
	}
	go n.heartbeatLoop()
}

// Stop terminates the loop (if running) and waits for it.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	if n.started.Load() {
		<-n.loopDone
	}
}

func (n *Node) heartbeatLoop() {
	defer close(n.loopDone)
	ticker := time.NewTicker(n.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
		}
		n.heartbeatOnce()
	}
}

// heartbeatOnce runs one probe round: all peers in parallel, then one
// Tick. The ring is rebuilt at most once per round no matter how many
// state changes the round produced.
func (n *Node) heartbeatOnce() {
	n.heartbeat.Add(1)
	var changed bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, peer := range n.membership.Known() {
		if peer == n.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if n.probe(peer) {
				mu.Lock()
				changed = true
				mu.Unlock()
			}
		}(peer)
	}
	wg.Wait()
	if n.membership.Tick(time.Now()) {
		changed = true
	}
	if changed {
		n.syncRing()
	}
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
	n.call(member, "/cluster/members", writeTimeout, nil, data, nil, nil) //nolint:errcheck // best effort: the heartbeats converge membership anyway
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
	if err := n.call(seed, "/cluster/join", writeTimeout, nil, data, nil, &msg); err != nil {
		return fmt.Errorf("joining %s: %w", seed, err)
	}
	n.SetMembers(msg.Members)
	return nil
}
