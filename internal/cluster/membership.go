package cluster

import (
	"sort"
	"sync"
	"time"
)

// PeerState is a peer's position in the SWIM-style failure-detection
// state machine: alive (answering probes), suspect (unreachable, but
// not yet long enough to act on — the peer can refute by showing up
// with a higher incarnation), dead (suspicion confirmed by timeout;
// the ring drops the peer and its sessions' replicas are promoted).
// Numeric order encodes gossip precedence: at equal incarnation, the
// "worse" state wins a merge, so a death confirmed anywhere spreads
// everywhere.
type PeerState uint8

const (
	StateAlive PeerState = iota
	StateSuspect
	StateDead
)

// String returns the wire form used in gossiped views.
func (s PeerState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

func parseState(s string) PeerState {
	switch s {
	case "alive":
		return StateAlive
	case "suspect":
		return StateSuspect
	default:
		return StateDead
	}
}

// PeerView is one peer's state as carried in a health exchange: the
// sender's belief about (member, incarnation, state). Views gossip
// piggybacked on /cluster/health requests and responses.
type PeerView struct {
	URL         string `json:"url"`
	Incarnation uint64 `json:"incarnation"`
	State       string `json:"state"`
}

// MembershipConfig tunes the failure detector. The defaults suit
// LAN-scale heartbeats (500ms probes); tests compress them to tens of
// milliseconds.
type MembershipConfig struct {
	// SuspectAfter is how long a peer may go without a direct ack
	// before it turns suspect.
	SuspectAfter time.Duration
	// DeadAfter is how long a suspect peer has to refute (show up
	// alive with an equal-or-higher incarnation) before the suspicion
	// is confirmed and the peer is declared dead.
	DeadAfter time.Duration
	// Incarnation seeds this member's own incarnation number; 0
	// derives one from the wall clock, so a restarted process always
	// outranks its previous life in gossip.
	Incarnation uint64
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1500 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * time.Second
	}
	if c.Incarnation == 0 {
		c.Incarnation = uint64(time.Now().UnixNano())
	}
	return c
}

type peerInfo struct {
	inc         uint64
	state       PeerState
	lastAck     time.Time // last direct evidence of life
	suspectedAt time.Time // when the peer last turned suspect
}

// Membership is the replicated failure detector's local view: this
// member's incarnation plus, per peer, the freshest (incarnation,
// state) it has seen directly or via gossip. It is a pure state
// machine — every input takes an explicit now, so tests drive it with
// synthetic clocks; the service layer's heartbeat loop feeds it real
// probes and wall time.
//
// The update rules are SWIM's: a higher incarnation always wins; at
// equal incarnation the worse state wins (dead > suspect > alive); a
// direct ack is stronger than any gossip at the acked incarnation;
// and a member that hears itself called suspect or dead refutes by
// bumping its own incarnation past the accusation.
type Membership struct {
	mu    sync.Mutex
	self  string
	inc   uint64
	cfg   MembershipConfig
	peers map[string]*peerInfo
}

// NewMembership builds the local view with every listed peer alive as
// of now (they get one full SuspectAfter of grace before the detector
// may turn on them).
func NewMembership(self string, peers []string, cfg MembershipConfig, now time.Time) *Membership {
	m := &Membership{
		self:  self,
		cfg:   cfg.withDefaults(),
		peers: make(map[string]*peerInfo),
	}
	m.inc = m.cfg.Incarnation
	for _, p := range peers {
		if p != "" && p != self {
			m.peers[p] = &peerInfo{state: StateAlive, lastAck: now}
		}
	}
	return m
}

// Incarnation returns this member's current incarnation number.
func (m *Membership) Incarnation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inc
}

// ObserveAck records direct evidence of life from a peer (a health
// response, or any successful exchange that carried its incarnation):
// the peer is alive at max(known, inc). Unknown peers are learned.
// Reports whether the non-dead member set changed (a suspect or dead
// peer came back).
func (m *Membership) ObserveAck(url string, inc uint64, now time.Time) bool {
	if url == "" || url == m.self {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[url]
	if !ok {
		m.peers[url] = &peerInfo{inc: inc, state: StateAlive, lastAck: now}
		return true
	}
	changed := p.state == StateDead
	if inc >= p.inc {
		// Direct contact at the current (or a newer) incarnation
		// overrides any gossiped suspicion of that incarnation.
		if p.state != StateAlive {
			changed = true
		}
		p.inc = inc
		p.state = StateAlive
	}
	p.lastAck = now
	return changed
}

// Merge folds a gossiped view in. Higher incarnations win outright;
// equal incarnations adopt the worse state. Hearing ourselves called
// suspect or dead refutes the accusation by bumping our incarnation
// past it. Unknown members are learned: this is how a joiner learns
// the ring from its seed's answer. Reports whether the non-dead member
// set — or our own incarnation — changed, i.e. whether the caller
// should re-gossip and rebuild its ring.
func (m *Membership) Merge(views []PeerView, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, v := range views {
		if v.URL == "" {
			continue
		}
		state := parseState(v.State)
		if v.URL == m.self {
			if state != StateAlive && v.Incarnation >= m.inc {
				m.inc = v.Incarnation + 1 // refute: outrank the accusation
				changed = true
			}
			continue
		}
		p, ok := m.peers[v.URL]
		if !ok {
			p = &peerInfo{inc: v.Incarnation, state: state}
			if state == StateAlive {
				p.lastAck = now
			} else if state == StateSuspect {
				p.suspectedAt = now
			}
			m.peers[v.URL] = p
			changed = changed || state != StateDead
			continue
		}
		adopt := v.Incarnation > p.inc || (v.Incarnation == p.inc && state > p.state)
		if !adopt {
			continue
		}
		wasDead, isDead := p.state == StateDead, state == StateDead
		p.inc = v.Incarnation
		p.state = state
		switch state {
		case StateAlive:
			p.lastAck = now
		case StateSuspect:
			p.suspectedAt = now
		}
		if wasDead != isDead {
			changed = true
		}
	}
	return changed
}

// Tick advances the timeouts: alive peers silent past SuspectAfter
// turn suspect; suspects unrefuted past DeadAfter are confirmed dead.
// Reports whether the non-dead member set changed (some peer died).
func (m *Membership) Tick(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, p := range m.peers {
		switch p.state {
		case StateAlive:
			if now.Sub(p.lastAck) >= m.cfg.SuspectAfter {
				p.state = StateSuspect
				p.suspectedAt = now
			}
		case StateSuspect:
			if now.Sub(p.suspectedAt) >= m.cfg.DeadAfter {
				p.state = StateDead
				changed = true
			}
		}
	}
	return changed
}

// Confirmation bounds how long a peer that stops answering stays in
// the ring when Tick runs once per round: SuspectAfter of silence,
// then DeadAfter of suspicion, each found up to one round late. A
// round is the probe interval, or longer when a probe hangs to its
// timeout. A forwarding that retries this long after a death outlasts
// its confirmation.
func (m *Membership) Confirmation(round time.Duration) time.Duration {
	return m.cfg.SuspectAfter + m.cfg.DeadAfter + 2*round
}

// State returns a peer's current state; ok is false for unknown URLs
// (and for self, which is always alive from its own point of view).
func (m *Membership) State(url string) (PeerState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[url]
	if !ok {
		return StateAlive, false
	}
	return p.state, true
}

// KnownIncarnation returns the freshest incarnation recorded for url
// (0 for unknown peers). The replication layer uses it to fence
// messages from a peer's previous life.
func (m *Membership) KnownIncarnation(url string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.peers[url]; ok {
		return p.inc
	}
	return 0
}

// Active returns self plus every non-dead peer, sorted — the member
// set the ring is built over. Suspects stay in: ownership moves only
// on confirmed death, while the router's read failover covers the
// suspicion window.
func (m *Membership) Active() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []string{m.self}
	for url, p := range m.peers {
		if p.state != StateDead {
			out = append(out, url)
		}
	}
	sort.Strings(out)
	return out
}

// Known returns every known member (self included, dead included),
// sorted.
func (m *Membership) Known() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []string{m.self}
	for url := range m.peers {
		out = append(out, url)
	}
	sort.Strings(out)
	return out
}

// Counts returns how many peers are in each state (self excluded).
func (m *Membership) Counts() (alive, suspect, dead int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		switch p.state {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		default:
			dead++
		}
	}
	return alive, suspect, dead
}

// Quorum reports whether this member can see a strict majority of the
// known membership (itself plus its alive peers, over everything it
// has ever been told about — dead members keep counting). A
// partitioned minority loses quorum and must fence state-changing
// commits; the majority side keeps serving. With one known member the
// answer is trivially true.
func (m *Membership) Quorum() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := 1 // self
	for _, p := range m.peers {
		if p.state == StateAlive {
			alive++
		}
	}
	return alive*2 > len(m.peers)+1
}

// View snapshots the local view for piggybacking on a health
// exchange: self first, then every known peer.
func (m *Membership) View() []PeerView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerView, 0, len(m.peers)+1)
	out = append(out, PeerView{URL: m.self, Incarnation: m.inc, State: StateAlive.String()})
	urls := make([]string, 0, len(m.peers))
	for url := range m.peers {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	for _, url := range urls {
		p := m.peers[url]
		out = append(out, PeerView{URL: url, Incarnation: p.inc, State: p.state.String()})
	}
	return out
}
