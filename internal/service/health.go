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
	if !readBody(w, r, func(b []byte) error { return decodeJSON(b, &msg) }) {
		return
	}
	now := time.Now()
	changed := n.membership.ObserveAck(msg.From, msg.Incarnation, now)
	if n.membership.Merge(msg.Views, now) || changed {
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

// probe sends one heartbeat to peer, bounded by timeout, and folds the
// answer in, reporting whether the member set changed. The heartbeat
// loop ignores its errors: silence is the signal, and Tick turns it
// into suspicion on schedule. The ack is timestamped when the answer
// arrives, not at round start — reusing the round-start clock would
// backdate lastAck by up to the probe timeout every round, enough to
// push a consistently slow-but-alive peer over an aggressive
// SuspectAfter.
func (n *Node) probe(peer string, timeout time.Duration) (bool, error) {
	msg := healthMessage{
		From:        n.self,
		Incarnation: n.membership.Incarnation(),
		Views:       n.membership.View(),
	}
	data, err := json.Marshal(msg)
	if err != nil {
		return false, err
	}
	sent := time.Now()
	var ans healthMessage
	if err := n.call(peer, "/cluster/health", timeout, nil, data, nil, &ans); err != nil {
		return false, err
	}
	now := time.Now()
	n.hbRTT.With(peerLabel(peer)).Set(now.Sub(sent).Seconds())
	changed := n.membership.ObserveAck(peer, ans.Incarnation, now)
	return n.membership.Merge(ans.Views, now) || changed, nil
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
			if moved, _ := n.probe(peer, n.healthTimeout()); moved {
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

// rebalance hands every local session whose owner under ring is some
// other member to that owner.
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

// migrate sends sess to owner as a replica, which the owner promotes on
// receipt (handleReplicate); on the ack, the local copy, its snapshot
// file and its fan-out record go.
func (n *Node) migrate(sess *Session, owner string) error {
	snap, sb, err := seal(sess)
	if err != nil {
		return err
	}
	defer sb.release()
	if err := n.sendReplica(owner, snap, sb); err != nil {
		return err
	}
	n.srv.Pool().Evict(sess.id)
	if n.store != nil {
		n.store.Delete(sess.id) //nolint:errcheck // best effort: a stale file is re-skipped at recovery
	}
	n.lastFanout.Delete(sess.id)
	n.migrations.Add(1)
	return nil
}

// Join enters the ring through seed in one probe round: probe the seed
// and adopt its view, then probe every other member at once, so each
// learns this replica, and hands it the sessions it now owns, before
// Join returns.
func (n *Node) Join(seed string) error {
	if _, err := n.probe(seed, writeTimeout); err != nil {
		return fmt.Errorf("joining %s: %w", seed, err)
	}
	n.syncRing()
	var wg sync.WaitGroup
	for _, m := range n.Members() {
		if m != n.self && m != seed {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.probe(m, writeTimeout) //nolint:errcheck // the heartbeats reach a member this probe missed
			}()
		}
	}
	wg.Wait()
	n.syncRing()
	return nil
}
