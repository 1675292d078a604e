// Package chaos is a deterministic fault-injection harness for the
// schedd cluster. It wraps an http.RoundTripper and, driven by a
// seeded RNG, drops, delays, or errors requests BEFORE they are
// transmitted. The pre-transmission property is the load-bearing
// design decision: an injected fault is indistinguishable from a
// connection that never dialed, so the router's retry policy — which
// re-sends non-idempotent operations only when the request provably
// never left the client — composes safely with every injected fault.
// Nothing here can make a request arrive twice.
//
// Determinism: all randomness comes from one seeded math/rand source
// behind a mutex. The same seed and the same sequence of RoundTrip
// calls draw the same faults, which is what lets the E17 chaos guard
// (TestE17ChaosRegression in internal/service) know its fault window
// is never empty. (Concurrent callers interleave nondeterministically,
// so cross-run identity holds for serial traffic; concurrent runs get
// the same fault *distribution*, and the guard's gates are invariants
// — zero failures, zero cold rebuilds, drift bounds — not exact fault
// counts.)
package chaos

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets per-request fault probabilities. Probabilities are
// evaluated in order drop, error, delay — at most one fault fires per
// request. Zero-value Config injects nothing.
type Config struct {
	Seed int64 // RNG seed; 0 means 1 (a zero seed must still be deterministic)

	DropProb  float64       // request vanishes: "connection refused"-shaped error
	ErrorProb float64       // request errors before transmission
	DelayProb float64       // request is sent after a random delay
	MaxDelay  time.Duration // uniform delay in (0, MaxDelay]; default 50ms

	// Exempt returns true for requests the harness must pass through
	// untouched (e.g. the health exchange, when a scenario only wants
	// data-path faults). Nil exempts nothing.
	Exempt func(*http.Request) bool
}

// Stats counts what the harness did.
type Stats struct {
	Requests int64 // RoundTrip calls seen (exempt included)
	Dropped  int64
	Errored  int64
	Delayed  int64
}

// DroppedError is the error returned for injected drops. It mimics a
// dial failure: the request never left, so callers may safely retry
// any operation, idempotent or not.
type DroppedError struct{ URL string }

func (e *DroppedError) Error() string {
	return fmt.Sprintf("chaos: dropped request to %s (injected dial failure)", e.URL)
}

// Timeout and Temporary mark the fault retryable to net-aware callers.
func (e *DroppedError) Timeout() bool   { return false }
func (e *DroppedError) Temporary() bool { return true }

// InjectedError is the error returned for injected pre-send errors.
type InjectedError struct{ URL string }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected transport error for %s", e.URL)
}

func (e *InjectedError) Timeout() bool   { return false }
func (e *InjectedError) Temporary() bool { return true }

// Transport is the fault-injecting http.RoundTripper. Wrap the real
// transport at Node construction; Enable/Disable gates injection at
// runtime so a scenario can fault only a window of the run.
type Transport struct {
	next    http.RoundTripper
	cfg     Config
	enabled atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand

	requests atomic.Int64
	dropped  atomic.Int64
	errored  atomic.Int64
	delayed  atomic.Int64
}

// NewTransport wraps next (nil means http.DefaultTransport) with
// fault injection per cfg. Injection starts disabled; call Enable.
func NewTransport(next http.RoundTripper, cfg Config) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	return &Transport{
		next: next,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Enable turns fault injection on.
func (t *Transport) Enable() { t.enabled.Store(true) }

// Disable turns fault injection off; in-flight delays finish.
func (t *Transport) Disable() { t.enabled.Store(false) }

// Stats returns a snapshot of the counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests: t.requests.Load(),
		Dropped:  t.dropped.Load(),
		Errored:  t.errored.Load(),
		Delayed:  t.delayed.Load(),
	}
}

// fault draws at most one fault for this request. Separated from
// RoundTrip so the RNG critical section never spans a network call.
func (t *Transport) fault() (drop, errored bool, delay time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.rng.Float64()
	switch {
	case u < t.cfg.DropProb:
		return true, false, 0
	case u < t.cfg.DropProb+t.cfg.ErrorProb:
		return false, true, 0
	case u < t.cfg.DropProb+t.cfg.ErrorProb+t.cfg.DelayProb:
		d := time.Duration(1 + t.rng.Int63n(int64(t.cfg.MaxDelay)))
		return false, false, d
	}
	return false, false, 0
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if !t.enabled.Load() || (t.cfg.Exempt != nil && t.cfg.Exempt(req)) {
		return t.next.RoundTrip(req)
	}
	drop, errored, delay := t.fault()
	switch {
	case drop:
		t.dropped.Add(1)
		return nil, &DroppedError{URL: req.URL.String()}
	case errored:
		t.errored.Add(1)
		return nil, &InjectedError{URL: req.URL.String()}
	case delay > 0:
		t.delayed.Add(1)
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return t.next.RoundTrip(req)
}
