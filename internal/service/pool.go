package service

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/lp"
	"repro/internal/platform"
)

// Pool is the LRU cache of warm sessions, keyed by session ID (a
// digest of the platform fingerprint plus solver configuration).
// Creating a session for a platform already resident is a cache hit
// that re-attaches to the warm model (and is answered with its
// committed answer, as a query is); past Capacity sessions, the
// least recently used one is evicted (its solver counters are folded
// into the retired aggregate so pool-wide stats stay monotone).
//
// Concurrent creates of the same platform coalesce: the first caller
// builds (outside the pool lock — model construction and the initial
// cold solve take real time), the rest wait on the entry's ready
// channel. An evicted session that still has requests in flight
// completes them on its own mutex; it is simply no longer reachable
// through the pool.
type Pool struct {
	capacity int

	mu      sync.Mutex
	entries map[string]*entry
	order   *list.List // front = most recently used; values are *entry

	hits      uint64
	misses    uint64
	evictions uint64
	retired   lp.Stats
	// retiredCacheHits/Misses and retiredWork carry evicted sessions'
	// answer-cache and what-if / epoch counters so the pool-wide totals
	// stay monotone, exactly like the retired solver aggregate.
	retiredCacheHits   uint64
	retiredCacheMisses uint64
	retiredWork        workCounts

	// hook, when set (before serving — there is no lock around reads),
	// is installed as every session's onCommit callback and invoked
	// once right after a session is created or installed, so the
	// cluster layer persists a snapshot at every committed state:
	// creation, epoch commits, migration arrivals.
	hook func(*Session)
}

type entry struct {
	id    string
	elem  *list.Element
	ready chan struct{} // closed when sess/err are set
	sess  *Session
	err   error
}

// NewPool returns a pool holding at most capacity warm sessions;
// capacity < 1 panics.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("service: pool capacity %d, want >= 1", capacity))
	}
	return &Pool{
		capacity: capacity,
		entries:  make(map[string]*entry),
		order:    list.New(),
	}
}

// getOrCreate returns the warm session filed under id, building it
// from pl and cfg, as decodeCreate returned them, if absent. created
// reports whether this call built it.
func (p *Pool) getOrCreate(pl *platform.Platform, cfg sessionConfig, id string) (sess *Session, created bool, err error) {
	p.mu.Lock()
	if e, ok := p.entries[id]; ok {
		p.hits++
		p.order.MoveToFront(e.elem)
		p.mu.Unlock()
		<-e.ready
		return e.sess, false, e.err
	}
	p.misses++
	e := &entry{id: id, ready: make(chan struct{})}
	e.elem = p.order.PushFront(e)
	p.entries[id] = e
	evicted := p.evictOverflowLocked()
	p.mu.Unlock()
	p.retire(evicted)

	e.sess, e.err = newSession(pl, cfg)
	if e.err == nil && p.hook != nil {
		// Wire the commit hook before the session becomes reachable
		// (ready closes below), then persist the creation state.
		e.sess.onCommit = p.hook
		p.hook(e.sess)
	}
	if e.err != nil {
		// Failed creations are not cached: drop the entry so a
		// corrected retry rebuilds.
		p.mu.Lock()
		if cur, ok := p.entries[id]; ok && cur == e {
			delete(p.entries, id)
			p.order.Remove(e.elem)
		}
		p.mu.Unlock()
	}
	close(e.ready)
	return e.sess, e.err == nil, e.err
}

// evictOverflowLocked removes least-recently-used entries beyond
// capacity and returns them for stats retirement (the caller folds
// them in outside the pool lock, since reading a session's counters
// takes its mutex).
func (p *Pool) evictOverflowLocked() []*entry {
	var evicted []*entry
	for len(p.entries) > p.capacity {
		back := p.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		p.order.Remove(back)
		delete(p.entries, e.id)
		p.evictions++
		evicted = append(evicted, e)
	}
	return evicted
}

// retire folds evicted sessions' solver and answer-cache counters
// into the retired aggregates. Entries still building are waited for;
// a failed build contributes nothing.
func (p *Pool) retire(evicted []*entry) {
	for _, e := range evicted {
		<-e.ready
		if e.err != nil || e.sess == nil {
			continue
		}
		st := e.sess.Stats()
		p.mu.Lock()
		p.retired.Add(st.Solver)
		p.retiredCacheHits += st.CacheHits
		p.retiredCacheMisses += st.CacheMisses
		p.retiredWork.add(&st)
		p.mu.Unlock()
	}
}

// SetSessionHook installs fn as the commit hook of every session the
// pool creates or installs from now on: fn runs right after creation
// and after every epoch commit, outside the session mutex. Set it
// before the pool starts serving — it is read without a lock.
func (p *Pool) SetSessionHook(fn func(*Session)) { p.hook = fn }

// Install puts a fully built session (a snapshot rebuild — recovery
// or inbound migration) into the pool under its own ID, replacing any
// resident session with that ID (the replaced session's counters are
// retired; replacement counts as an eviction). The installed session
// gets the pool's commit hook and its current state is persisted
// through it.
func (p *Pool) Install(sess *Session) {
	if p.hook != nil {
		sess.onCommit = p.hook
	}
	ready := make(chan struct{})
	close(ready)
	e := &entry{id: sess.id, ready: ready, sess: sess}
	p.mu.Lock()
	var retired []*entry
	if old, ok := p.entries[sess.id]; ok {
		p.order.Remove(old.elem)
		delete(p.entries, sess.id)
		p.evictions++
		retired = append(retired, old)
	}
	e.elem = p.order.PushFront(e)
	p.entries[sess.id] = e
	retired = append(retired, p.evictOverflowLocked()...)
	p.mu.Unlock()
	p.retire(retired)
	if p.hook != nil {
		p.hook(sess)
	}
}

// Get returns the session with the given ID (touching its LRU slot),
// or nil. It never blocks on a session still being built — an
// unfinished entry is reported as absent.
func (p *Pool) Get(id string) *Session {
	p.mu.Lock()
	e, ok := p.entries[id]
	if ok {
		select {
		case <-e.ready:
		default:
			p.mu.Unlock()
			return nil
		}
		if e.err == nil {
			p.order.MoveToFront(e.elem)
			p.mu.Unlock()
			return e.sess
		}
	}
	p.mu.Unlock()
	return nil
}

// Evict removes the session with the given ID, reporting whether it
// was present. Its solver counters join the retired aggregate.
func (p *Pool) Evict(id string) bool {
	p.mu.Lock()
	e, ok := p.entries[id]
	if !ok {
		p.mu.Unlock()
		return false
	}
	delete(p.entries, id)
	p.order.Remove(e.elem)
	p.evictions++
	p.mu.Unlock()
	p.retire([]*entry{e})
	return true
}

// Sessions snapshots the live, fully built sessions in MRU order.
func (p *Pool) Sessions() []*Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sessionsLocked()
}

func (p *Pool) sessionsLocked() []*Session {
	out := make([]*Session, 0, len(p.entries))
	for el := p.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		select {
		case <-e.ready:
			if e.err == nil && e.sess != nil {
				out = append(out, e.sess)
			}
		default:
		}
	}
	return out
}

// Stats assembles the /stats response: per-session activity and
// solver counters plus the pool-wide aggregate (live + retired). The
// live list and the retired aggregate are snapshotted in one critical
// section, so a concurrent eviction cannot count a session both as a
// live row and inside the retired aggregate; each session's own
// counters are then read outside the pool lock (they need the session
// lock, which may be held by a long solve).
func (p *Pool) Stats() PoolStatsResponse {
	p.mu.Lock()
	sessions := p.sessionsLocked()
	resp := PoolStatsResponse{
		Live:      len(p.entries),
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
		Total:     p.retired,
	}
	resp.Cluster.CacheHits = p.retiredCacheHits
	resp.Cluster.CacheMisses = p.retiredCacheMisses
	resp.work = p.retiredWork
	p.mu.Unlock()
	resp.Sessions = make([]SessionStats, 0, len(sessions))
	for _, s := range sessions {
		st := s.Stats()
		resp.Sessions = append(resp.Sessions, st)
		resp.Total.Add(st.Solver)
		resp.Cluster.CacheHits += st.CacheHits
		resp.Cluster.CacheMisses += st.CacheMisses
		resp.work.add(&st)
	}
	return resp
}
