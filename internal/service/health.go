package service

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
)

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
	t := n.cfg.ReadTimeout
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
