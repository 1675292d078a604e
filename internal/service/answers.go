package service

import (
	"bytes"
	"container/list"
	"sync"
)

// sessionCacheCap bounds each session's resolved what-ifs. The hot set
// is the repeat what-ifs against the current committed state;
// superseded epochs' entries are invalidated on commit, so a small
// table holds everything that can still hit.
const sessionCacheCap = 256

// answer is one answerTable entry, or a session's committed answer. While
// an entry's solve is in flight only done is live: identical requests
// wait on it. Resolved, it holds the populating solve's report —
// immutable once filed, and what a fresh solve of the query at that
// epoch answers, since a report depends on nothing else — under the
// committed epoch the solve ran against, and its lazily built wire
// image. The committed answer is published resolved, with no query,
// epoch or slot.
type answer struct {
	query string
	done  chan struct{} // closed when the flight resolves
	epoch int
	rep   SolveReport
	err   error         // a failed solve's error, for a flight's waiters
	elem  *list.Element // LRU slot; nil while in flight and once dropped

	once  sync.Once
	image []byte
}

// report returns a copy of the stored report with Cached set.
func (a *answer) report() *SolveReport {
	rep := a.rep
	rep.Cached = true
	return &rep
}

// wire returns the entry's wire image: the response body of a hit
// (the report with "cached": true, as EncodeReport writes it), shared
// read-only by every hit. It is encoded on the first hit, not when the
// entry is filed: most entries of an adapting session are evicted or
// invalidated unread and must not pay for an encode. (A committed answer
// whose commit encoded a body is published with the image built from
// that body instead: newAnswer.) Nil when the encoder cannot
// write the report (a NaN or ±Inf).
func (a *answer) wire() []byte {
	a.once.Do(func() {
		bp, ok := reportBytes(a.report())
		if ok {
			a.image = bytes.Clone(*bp)
		}
		reportBufs.Put(bp)
	})
	return a.image
}

// cachedImage is a commit's response body — a report as EncodeReport
// writes it, whose last member is its epoch — with "cached": true written
// after that member, in a slice of its own: EncodeReport's bytes for the
// report with Cached set, the image a query of the committed answer
// serves.
func cachedImage(body []byte) []byte {
	const end, cached = "\n}\n", ",\n  \"cached\": true\n}\n"
	head := body[:len(body)-len(end)]
	return append(append(make([]byte, 0, len(head)+len(cached)), head...), cached...)
}

// answerTable is a session's one table of what-if answers, keyed by
// canonical what-if: the memo of solved answers and the single-flight
// registry of solves still running, under one mutex. The committed
// answer is not in it (it is committed state: Session.state); a query
// counts as its hit. An entry is either in flight or resolved at a
// committed epoch; a lookup hits only an entry resolved at the table's
// current epoch.
//
// Correctness does not rest on eviction: the epoch strictly increases
// and only a published commit moves a session's platform, so the table
// is rotated once per published state, at publish (a failed commit
// publishes nothing and leaves the table alone), and an entry resolved
// before a commit can never match a lookup made after it — rotate's
// sweep just reclaims the capacity eagerly. Resolved entries
// are a bounded LRU; in-flight entries are outside it (there is at most
// one per request in progress) and are never evicted.
type answerTable struct {
	mu      sync.Mutex
	epoch   int // the published epoch; moves only at publish, under the session mutex
	entries map[string]*answer
	order   *list.List // resolved entries, front = most recently used

	hits   uint64
	misses uint64
}

func newAnswerTable() *answerTable {
	return &answerTable{entries: make(map[string]*answer), order: list.New()}
}

// hitLocked reports whether a — the entry filed under a lookup's query,
// or nil — is resolved at the current epoch, counting the hit or the
// miss. A hit is an answer that was valid at lookup time, exactly as a
// solve that finished just before a concurrent commit would be.
func (t *answerTable) hitLocked(a *answer) bool {
	if a != nil && a.elem != nil && a.epoch == t.epoch {
		t.order.MoveToFront(a.elem)
		t.hits++
		return true
	}
	t.misses++
	return false
}

// countHit counts a read of the committed answer, which is always a hit.
func (t *answerTable) countHit() {
	t.mu.Lock()
	t.hits++
	t.mu.Unlock()
}

// claim looks query up, keyed by its bytes (the lookup copies nothing).
// On a hit it returns the resolved entry; on a miss the caller either
// joins the flight already in the air for query (owner false: wait on
// done, then read rep or err) or registers its own (owner true: solve,
// then resolve the entry).
func (t *answerTable) claim(query []byte) (a *answer, hit, owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a = t.entries[string(query)]
	if t.hitLocked(a) {
		return a, true, false
	}
	if a != nil {
		if a.elem == nil {
			return a, false, false
		}
		t.dropLocked(a) // resolved at a superseded epoch
	}
	a = &answer{query: string(query), done: make(chan struct{})}
	t.entries[a.query] = a
	return a, false, true
}

// resolve ends a's flight. The caller holds the session mutex, so a
// solved answer is filed under the epoch it was computed against —
// the current one as the solve finishes, not the one its claim looked
// up: a commit may have landed in between — and the least recently used
// resolved entries past the bound are evicted. A failed solve leaves no
// entry; its waiters read err. The stored report is a private copy, so
// the caller's stays mutable without aliasing the table. The flight
// holds its key until it resolves: a claim joins it, and neither a
// commit's sweep nor an eviction drops it.
func (t *answerTable) resolve(a *answer, rep *SolveReport, err error) {
	t.mu.Lock()
	if err != nil {
		a.err = err
		delete(t.entries, a.query)
	} else {
		a.epoch, a.rep = t.epoch, *rep
		a.elem = t.order.PushFront(a)
		for t.order.Len() > sessionCacheCap {
			t.dropLocked(t.order.Back().Value.(*answer))
		}
	}
	t.mu.Unlock()
	close(a.done)
}

// dropLocked removes a resolved entry; hits already holding it keep
// reading it.
func (t *answerTable) dropLocked(a *answer) {
	t.order.Remove(a.elem)
	a.elem = nil
	delete(t.entries, a.query)
}

// rotate moves the table to the epoch of a newly published committed
// state — under the session mutex — and sweeps the resolved answers,
// all now unreachable. Flights, and the hit/miss counters (which feed monotone
// /stats aggregates), are left alone.
func (t *answerTable) rotate(epoch int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = epoch
	t.flushLocked()
}

func (t *answerTable) flushLocked() {
	for t.order.Len() > 0 {
		t.dropLocked(t.order.Front().Value.(*answer))
	}
}

// counters returns the cumulative hit and miss counts.
func (t *answerTable) counters() (hits, misses uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses
}
