package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/heuristics"
)

// flush drops every resolved answer; the hit/miss counters survive
// (they feed monotone /stats aggregates). Tests use it to reach the
// uncached solve path.
func (t *answerTable) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
}

// lookup returns the answer resolved for query, or nil, counting the
// hit or the miss as a claim does, but opening no flight.
func (t *answerTable) lookup(query string) *answer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.entries[query]; t.hitLocked(a) {
		return a
	}
	return nil
}

// TestAnswerTable pins the table's contract row by row, each on a fresh
// table: what a lookup or claim returns, and — checked after every row
// — the hit/miss counters (every lookup that is not a hit is one miss,
// waiters included) and how many entries are resolved and in flight.
func TestAnswerTable(t *testing.T) {
	rep := func(v float64) *SolveReport { return &SolveReport{Value: v} }
	// value is the answer a lookup serves, or -1 for a miss.
	value := func(tb *answerTable, query string) float64 {
		if a := tb.lookup(query); a != nil {
			return a.rep.Value
		}
		return -1
	}
	own := func(t *testing.T, tb *answerTable, query string) *answer {
		t.Helper()
		a, hit, owner := tb.claim([]byte(query))
		if hit || !owner {
			t.Fatalf("claim(%s): hit=%v owner=%v, want a new flight", query, hit, owner)
		}
		return a
	}
	join := func(t *testing.T, tb *answerTable, query string, flight *answer) {
		t.Helper()
		if a, hit, owner := tb.claim([]byte(query)); a != flight || hit || owner {
			t.Fatalf("claim(%s): hit=%v owner=%v same=%v, want to join the flight", query, hit, owner, a == flight)
		}
	}
	// file is a what-if solved and filed: a flight of its own (one miss),
	// resolved to r.
	file := func(t *testing.T, tb *answerTable, query string, r *SolveReport) {
		t.Helper()
		tb.resolve(own(t, tb, query), r, nil)
	}
	landed := func(t *testing.T, a *answer) {
		t.Helper()
		select {
		case <-a.done:
		default:
			t.Fatal("the flight resolved but its waiters were not released")
		}
	}

	rows := []struct {
		name               string
		run                func(t *testing.T, tb *answerTable)
		hits, misses       uint64
		resolved, inFlight int
	}{
		{name: "hit", hits: 3, misses: 1, resolved: 1,
			run: func(t *testing.T, tb *answerTable) {
				file(t, tb, "q", rep(1))
				if got := value(tb, "q"); got != 1 {
					t.Fatalf("lookup served %v, want 1", got)
				}
				if a, hit, owner := tb.claim([]byte("q")); !hit || owner || a.rep.Value != 1 || !a.report().Cached {
					t.Fatalf("claim on a resolved answer: hit=%v owner=%v", hit, owner)
				}
				if got := value(tb, "q"); got != 1 {
					t.Fatalf("lookup after a hit served %v, want 1", got)
				}
			}},
		{name: "miss at a rotated digest while the stale entry is resident", hits: 1, misses: 3, inFlight: 1,
			run: func(t *testing.T, tb *answerTable) {
				file(t, tb, "q", rep(1))
				tb.epoch = 2 // a rotation whose sweep has not run: the epoch alone must fence the entry
				if got := value(tb, "q"); got != -1 {
					t.Fatalf("lookup at epoch 2 served the epoch-1 answer %v", got)
				}
				tb.epoch = 1
				if tb.order.Len() != 1 || value(tb, "q") != 1 {
					t.Fatal("the miss disturbed the resident entry")
				}
				tb.epoch = 2
				own(t, tb, "q") // the re-solve takes the stale entry's slot
			}},
		{name: "second claimant joins the flight", hits: 1, misses: 3, resolved: 1,
			run: func(t *testing.T, tb *answerTable) {
				a := own(t, tb, "q")
				join(t, tb, "q", a)
				join(t, tb, "q", a)
				tb.resolve(a, rep(7), nil)
				landed(t, a)
				if a.err != nil || a.rep.Value != 7 {
					t.Fatalf("waiters read value %v, err %v; want 7", a.rep.Value, a.err)
				}
				if got := value(tb, "q"); got != 7 {
					t.Fatalf("a straggler past the flight is served %v, want a plain hit on 7", got)
				}
			}},
		{name: "failed solve hands its error to waiters and leaves no entry", misses: 3, inFlight: 1,
			run: func(t *testing.T, tb *answerTable) {
				boom := errors.New("boom")
				a := own(t, tb, "q")
				join(t, tb, "q", a)
				tb.resolve(a, nil, boom)
				landed(t, a)
				if !errors.Is(a.err, boom) || len(tb.entries) != 0 {
					t.Fatalf("err %v with %d entries left, want boom and none", a.err, len(tb.entries))
				}
				own(t, tb, "q") // the next request solves afresh
			}},
		{name: "commit between claim and resolve files under the new digest", hits: 1, misses: 1, resolved: 1,
			run: func(t *testing.T, tb *answerTable) {
				a := own(t, tb, "q")
				tb.rotate(2) // the commit's sweep leaves flights alone
				tb.resolve(a, rep(9), nil)
				if a.epoch != 2 {
					t.Fatalf("the answer solved after the commit is filed under epoch %d, the one its claim saw", a.epoch)
				}
				if got := value(tb, "q"); got != 9 {
					t.Fatalf("lookup at epoch 2 served %v, want 9", got)
				}
			}},
		{name: "LRU evicts the oldest resolved entry, never one in flight", hits: 2, misses: 4 + sessionCacheCap, resolved: sessionCacheCap,
			run: func(t *testing.T, tb *answerTable) {
				flight := own(t, tb, "flight")
				for i := 0; i < sessionCacheCap; i++ {
					file(t, tb, fmt.Sprint("q", i), rep(float64(i)))
				}
				if got := value(tb, "q0"); got != 0 { // refresh q0: q1 is now the oldest
					t.Fatalf("q0 served %v before the table was full", got)
				}
				file(t, tb, "one more", rep(0))
				if value(tb, "q1") != -1 || value(tb, "q0") != 0 {
					t.Fatal("eviction did not take the least recently used entry")
				}
				if tb.entries["flight"] != flight {
					t.Fatal("the in-flight entry was evicted")
				}
				tb.resolve(flight, rep(1), nil) // landing makes it the newest; q2 goes
				if value(tb, "q2") != -1 {
					t.Fatal("landing a flight in a full table evicted nothing")
				}
			}},
		{name: "invalidate-on-commit and flush keep the counters", hits: 2, misses: 6,
			run: func(t *testing.T, tb *answerTable) {
				file(t, tb, "a", rep(1))
				file(t, tb, "b", rep(2))
				value(tb, "a")
				value(tb, "nope")
				tb.rotate(2)
				if h, m := tb.counters(); tb.order.Len() != 0 || h != 1 || m != 3 {
					t.Fatalf("after the commit: %d resolved, %d hits, %d misses; want 0, 1, 3", tb.order.Len(), h, m)
				}
				if got := value(tb, "a"); got != -1 {
					t.Fatalf("pre-commit entry still served: %v", got)
				}
				file(t, tb, "c", rep(3))
				value(tb, "c")
				tb.flush()
				if h, m := tb.counters(); tb.order.Len() != 0 || h != 2 || m != 5 {
					t.Fatalf("after flush: %d resolved, %d hits, %d misses; want 0, 2, 5", tb.order.Len(), h, m)
				}
				if got := value(tb, "c"); got != -1 {
					t.Fatalf("flushed entry still served: %v", got)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tb := newAnswerTable()
			tb.rotate(1)
			row.run(t, tb)
			hits, misses := tb.counters()
			resolved, inFlight := tb.order.Len(), len(tb.entries)-tb.order.Len()
			if hits != row.hits || misses != row.misses || resolved != row.resolved || inFlight != row.inFlight {
				t.Fatalf("hits %d misses %d resolved %d in flight %d; want %d %d %d %d",
					hits, misses, resolved, inFlight, row.hits, row.misses, row.resolved, row.inFlight)
			}
		})
	}
}

// TestWhatIfFiledUnderTheDigestItWasSolvedAt is the Session half of the
// "commit between claim and resolve" row: a what-if that claimed its
// flight at epoch 0 and got the session mutex only after a commit is
// solved at epoch 1, filed under epoch 1, and served from
// there — never under the epoch its claim looked up.
func TestWhatIfFiledUnderTheDigestItWasSolvedAt(t *testing.T) {
	pl := testPlatform(t, 6, 14)
	sess, err := newSession(pl, sessionConfig{obj: core.MAXMIN, objName: "maxmin", heur: "lprg", name: heuristics.NameLPRG})
	if err != nil {
		t.Fatal(err)
	}
	wi := &WhatIfRequest{Gateways: []ClusterValue{{Cluster: 0, Value: pl.Clusters[0].Gateway * 0.5}}}
	before := sess.answers.epoch

	sess.mu.Lock()
	done := make(chan *SolveReport, 1)
	go func() {
		rep, err := sess.WhatIf(wi)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	for deadline := time.Now().Add(5 * time.Second); sess.whatIfs.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the what-if never claimed its flight")
		}
	}
	c, rep, err := sess.epochLocked(sess.state.Load(), &EpochRequest{SpeedFactor: driftFactors(6, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	c.answer = newAnswer(rep, nil)
	sess.publishLocked(c)
	sess.mu.Unlock()

	solved := <-done
	if solved == nil || solved.Epoch != 1 || solved.Cached {
		t.Fatalf("the in-flight what-if answered %+v, want a solve at epoch 1", solved)
	}
	key, _ := json.Marshal(wi)
	if a := sess.answers.entries[string(key)]; a == nil || a.epoch == before || a.epoch != sess.answers.epoch {
		t.Fatalf("the answer is not filed under the post-commit epoch: %+v", a)
	}
	again, err := sess.WhatIf(wi)
	if err != nil || !again.Cached || again.Epoch != 1 || again.Value != solved.Value {
		t.Fatalf("repeat after the commit: %+v (%v), want a hit on the epoch-1 answer", again, err)
	}
}
