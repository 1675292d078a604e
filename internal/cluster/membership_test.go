package cluster

import (
	"reflect"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func testCfg() MembershipConfig {
	return MembershipConfig{
		SuspectAfter: 100 * time.Millisecond,
		DeadAfter:    200 * time.Millisecond,
		Incarnation:  7,
	}
}

func TestMembershipSuspectThenDead(t *testing.T) {
	m := NewMembership("a", []string{"a", "b", "c"}, testCfg(), t0)

	if got := m.Active(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("initial Active = %v", got)
	}
	if !m.Quorum() {
		t.Fatal("fresh membership should have quorum")
	}

	// b keeps acking, c goes silent.
	if m.Tick(t0.Add(50 * time.Millisecond)) {
		t.Fatal("Tick before SuspectAfter should change nothing")
	}
	m.ObserveAck("b", 1, t0.Add(90*time.Millisecond))

	if m.Tick(t0.Add(110 * time.Millisecond)) {
		t.Fatal("alive→suspect must not report a member-set change")
	}
	if st, _ := m.State("c"); st != StateSuspect {
		t.Fatalf("c state = %v, want suspect", st)
	}
	if st, _ := m.State("b"); st != StateAlive {
		t.Fatalf("b state = %v, want alive", st)
	}
	// Suspects stay in the ring member set.
	if got := m.Active(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Active with suspect = %v", got)
	}

	// Not dead yet: DeadAfter counts from suspicion, not last ack.
	m.ObserveAck("b", 1, t0.Add(200*time.Millisecond))
	if m.Tick(t0.Add(250 * time.Millisecond)) {
		t.Fatal("suspect within DeadAfter must stay suspect")
	}
	if !m.Tick(t0.Add(310 * time.Millisecond)) {
		t.Fatal("suspect past DeadAfter must die and report a change")
	}
	if st, _ := m.State("c"); st != StateDead {
		t.Fatalf("c state = %v, want dead", st)
	}
	if got := m.Active(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Active after death = %v", got)
	}
	// 2 alive of 3 known: still quorum (b acks again — it too went
	// quiet past SuspectAfter during the wait for c's death).
	m.ObserveAck("b", 1, t0.Add(310*time.Millisecond))
	if !m.Quorum() {
		t.Fatal("majority side should keep quorum after one death")
	}
}

func TestMembershipAckRevivesSuspect(t *testing.T) {
	m := NewMembership("a", []string{"b"}, testCfg(), t0)
	m.Tick(t0.Add(150 * time.Millisecond))
	if st, _ := m.State("b"); st != StateSuspect {
		t.Fatalf("b = %v, want suspect", st)
	}
	if !m.ObserveAck("b", 0, t0.Add(160*time.Millisecond)) {
		t.Fatal("ack reviving a suspect should report a change")
	}
	if st, _ := m.State("b"); st != StateAlive {
		t.Fatalf("b = %v, want alive after ack", st)
	}
	// And the dead-timer must have reset: next suspicion needs a fresh
	// SuspectAfter + DeadAfter.
	m.Tick(t0.Add(270 * time.Millisecond))
	if st, _ := m.State("b"); st != StateSuspect {
		t.Fatalf("b = %v, want re-suspected", st)
	}
	if m.Tick(t0.Add(400 * time.Millisecond)) {
		t.Fatal("re-suspected peer died off the stale timer")
	}
}

func TestMembershipStaleAckCannotReviveNewerIncarnation(t *testing.T) {
	m := NewMembership("a", []string{"b"}, testCfg(), t0)
	// Gossip: b's incarnation 5 is dead.
	m.Merge([]PeerView{{URL: "b", Incarnation: 5, State: "dead"}}, t0)
	if st, _ := m.State("b"); st != StateDead {
		t.Fatalf("b = %v, want dead after merge", st)
	}
	// A delayed ack from incarnation 4 must not resurrect it...
	m.ObserveAck("b", 4, t0.Add(10*time.Millisecond))
	if st, _ := m.State("b"); st != StateDead {
		t.Fatalf("stale ack revived a dead peer")
	}
	// ...but a live contact at incarnation >= 5 does (restarted peer).
	if !m.ObserveAck("b", 6, t0.Add(20*time.Millisecond)) {
		t.Fatal("fresh-incarnation ack should report a change")
	}
	if st, _ := m.State("b"); st != StateAlive {
		t.Fatalf("b = %v, want alive at new incarnation", st)
	}
	if m.KnownIncarnation("b") != 6 {
		t.Fatalf("KnownIncarnation(b) = %d, want 6", m.KnownIncarnation("b"))
	}
}

func TestMembershipMergePrecedence(t *testing.T) {
	m := NewMembership("a", []string{"b"}, testCfg(), t0)
	m.ObserveAck("b", 3, t0)

	// Equal incarnation: worse state wins.
	m.Merge([]PeerView{{URL: "b", Incarnation: 3, State: "suspect"}}, t0)
	if st, _ := m.State("b"); st != StateSuspect {
		t.Fatalf("equal-inc suspect should win over alive, got %v", st)
	}
	// Equal incarnation: better state loses.
	m.Merge([]PeerView{{URL: "b", Incarnation: 3, State: "alive"}}, t0)
	if st, _ := m.State("b"); st != StateSuspect {
		t.Fatalf("equal-inc alive must not override suspect, got %v", st)
	}
	// Higher incarnation: alive wins outright (refutation propagated).
	m.Merge([]PeerView{{URL: "b", Incarnation: 4, State: "alive"}}, t0)
	if st, _ := m.State("b"); st != StateAlive {
		t.Fatalf("higher-inc alive should win, got %v", st)
	}
	// Lower incarnation dead is ignored.
	m.Merge([]PeerView{{URL: "b", Incarnation: 2, State: "dead"}}, t0)
	if st, _ := m.State("b"); st != StateAlive {
		t.Fatalf("lower-inc dead must be ignored, got %v", st)
	}
	// Unknown members are learned from gossip.
	m.Merge([]PeerView{{URL: "d", Incarnation: 1, State: "alive"}}, t0)
	if got := m.Active(); !reflect.DeepEqual(got, []string{"a", "b", "d"}) {
		t.Fatalf("Active after learning d = %v", got)
	}
}

func TestMembershipSelfRefutation(t *testing.T) {
	m := NewMembership("a", []string{"b"}, testCfg(), t0)
	inc0 := m.Incarnation()

	// Old accusation (incarnation below ours): no refutation needed.
	if m.Merge([]PeerView{{URL: "a", Incarnation: inc0 - 1, State: "suspect"}}, t0) {
		t.Fatal("stale self-suspicion should not change anything")
	}
	if m.Incarnation() != inc0 {
		t.Fatalf("incarnation moved on stale accusation: %d", m.Incarnation())
	}

	// Current accusation: refute by outbidding it.
	if !m.Merge([]PeerView{{URL: "a", Incarnation: inc0, State: "suspect"}}, t0) {
		t.Fatal("refutation should report a change (re-gossip trigger)")
	}
	if m.Incarnation() != inc0+1 {
		t.Fatalf("incarnation = %d, want %d", m.Incarnation(), inc0+1)
	}

	// Being called dead at a higher incarnation still refutes past it.
	m.Merge([]PeerView{{URL: "a", Incarnation: inc0 + 5, State: "dead"}}, t0)
	if m.Incarnation() != inc0+6 {
		t.Fatalf("incarnation = %d, want %d", m.Incarnation(), inc0+6)
	}
}

func TestMembershipQuorum(t *testing.T) {
	m := NewMembership("a", []string{"b", "c"}, testCfg(), t0)
	// Both peers die: 1 alive of 3 known — no quorum.
	m.Tick(t0.Add(150 * time.Millisecond))
	m.Tick(t0.Add(400 * time.Millisecond))
	a, s, d := m.Counts()
	if a != 0 || s != 0 || d != 2 {
		t.Fatalf("Counts = %d/%d/%d, want 0/0/2", a, s, d)
	}
	if m.Quorum() {
		t.Fatal("1 alive of 3 known must not have quorum")
	}
	// One comes back with a fresh incarnation: 2 of 3 — quorum again.
	m.ObserveAck("b", 99, t0.Add(500*time.Millisecond))
	if !m.Quorum() {
		t.Fatal("2 alive of 3 known should have quorum")
	}
	// Single-member cluster always has quorum.
	solo := NewMembership("a", nil, testCfg(), t0)
	if !solo.Quorum() {
		t.Fatal("singleton must have quorum")
	}
}

func TestMembershipViewRoundTrip(t *testing.T) {
	m := NewMembership("a", []string{"b", "c"}, testCfg(), t0)
	m.Tick(t0.Add(150 * time.Millisecond)) // b, c suspect
	view := m.View()
	if len(view) != 3 || view[0].URL != "a" || view[0].State != "alive" {
		t.Fatalf("View = %+v", view)
	}

	// A second member merging the view adopts the suspicion.
	other := NewMembership("b", []string{"a", "c"}, testCfg(), t0)
	other.Merge(view, t0.Add(150*time.Millisecond))
	if st, _ := other.State("c"); st != StateSuspect {
		t.Fatalf("gossiped suspicion not adopted: %v", st)
	}
	// b saw itself suspected at its own incarnation... but the view
	// reports incarnation 0 for b (never acked), which is below b's
	// wall-derived/default incarnation 7, so no refutation fires.
	if other.Incarnation() != 7 {
		t.Fatalf("incarnation = %d, want 7", other.Incarnation())
	}
}

func TestRingSuccessors(t *testing.T) {
	members := []string{"n1", "n2", "n3", "n4"}
	r := NewRing(members, 64)
	for _, key := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("Successors(%q,3) = %v", key, succ)
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("Successors[0] = %q, Owner = %q", succ[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate member in %v", succ)
			}
			seen[s] = true
		}
		// The failover contract: removing the first i members makes
		// successor i the new owner.
		shrunk := members
		for i := 1; i < len(succ); i++ {
			var next []string
			for _, m := range shrunk {
				if m != succ[i-1] {
					next = append(next, m)
				}
			}
			shrunk = next
			if got := NewRing(shrunk, 64).Owner(key); got != succ[i] {
				t.Fatalf("key %q: after removing %v owner = %q, want successor %q",
					key, members[:i], got, succ[i])
			}
		}
		// Over-asking returns everyone.
		if got := r.Successors(key, 99); len(got) != len(members) {
			t.Fatalf("Successors(%q,99) = %v", key, got)
		}
	}
	if got := NewRing(nil, 0).Successors("k", 2); got != nil {
		t.Fatalf("empty ring Successors = %v", got)
	}
}
