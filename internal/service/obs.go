package service

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// traceHeader carries the request-scoped trace ID: generated at the
// first schedd that sees a request (or adopted from the client if it
// supplies one), propagated on every forwarding/failover hop, and
// echoed in every response — so one grep across the cluster's logs
// reconstructs a request's full path.
const traceHeader = "X-Schedd-Trace"

// serverMetrics is the Server's registered metric set. Everything
// observed on the request path is a pre-registered atomic
// (histograms/counters from internal/obs — no locks, no allocations
// per observation); pool and solver totals are mirrored into the
// registry by a scrape-time collector instead of being double-counted
// on the hot path.
type serverMetrics struct {
	reqLatency  *obs.HistogramVec // schedd_request_seconds{endpoint}
	sessLatency *obs.HistogramVec // schedd_session_request_seconds{session}

	poolHits    *obs.Counter
	poolMisses  *obs.Counter
	evictions   *obs.Counter
	liveSess    *obs.Gauge
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	whatIfs     *obs.Counter
	coalesced   *obs.Counter
	epochs      *obs.Counter

	pivots        *obs.Counter
	refactors     *obs.Counter
	warmSolves    *obs.Counter
	coldSolves    *obs.Counter
	coldFallbacks *obs.Counter
	boundFlips    *obs.Counter
	forks         *obs.Counter
	phaseNanos    *obs.CounterVec // schedd_solver_phase_nanoseconds_total{phase}

	sessionHealthy *obs.GaugeVec // schedd_session_healthy{session}
	degradedConds  *obs.Gauge    // schedd_health_degraded_conditions
}

func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		reqLatency: reg.HistogramVec("schedd_request_seconds",
			"Request latency by endpoint, observed at ingress.", "endpoint"),
		sessLatency: reg.HistogramVec("schedd_session_request_seconds",
			"Request latency by session (ID prefix; capped cardinality).", "session"),
		poolHits: reg.Counter("schedd_pool_hits_total",
			"Session-pool lookups answered by a live session."),
		poolMisses: reg.Counter("schedd_pool_misses_total",
			"Session-pool lookups that built (or re-built) a session."),
		evictions: reg.Counter("schedd_pool_evictions_total",
			"Sessions evicted from the pool (LRU or explicit DELETE)."),
		liveSess: reg.Gauge("schedd_sessions_live",
			"Live sessions currently in the pool."),
		cacheHits: reg.Counter("schedd_answer_cache_hits_total",
			"Answer-cache hits across live and retired sessions."),
		cacheMisses: reg.Counter("schedd_answer_cache_misses_total",
			"Answer-cache consults that went on to solve."),
		whatIfs: reg.Counter("schedd_whatifs_total",
			"What-ifs answered by their own solve or from the answer cache, batched ones included."),
		coalesced: reg.Counter("schedd_coalesced_whatifs_total",
			"What-ifs answered by an identical one's solve: a flight's waiters and a batch's repeats."),
		epochs: reg.Counter("schedd_epochs_total",
			"Epoch commits run, failed ones included; a retry answered from the commit record is not one."),
		pivots: reg.Counter("schedd_solver_pivots_total",
			"Simplex pivots across all pool sessions (live + retired)."),
		refactors: reg.Counter("schedd_solver_refactorizations_total",
			"Basis refactorizations across all pool sessions."),
		warmSolves: reg.Counter("schedd_solver_warm_solves_total",
			"Warm dual-simplex restarts that ran to a verdict."),
		coldSolves: reg.Counter("schedd_solver_cold_solves_total",
			"Full two-phase cold solves."),
		coldFallbacks: reg.Counter("schedd_solver_cold_fallbacks_total",
			"Warm restarts abandoned into a cold solve."),
		boundFlips: reg.Counter("schedd_solver_bound_flips_total",
			"Pivot-free bound flips of the bounded-variable simplex."),
		forks: reg.Counter("schedd_solver_forks_total",
			"Solve contexts allocated for batch forks (a reforked pooled one is not counted)."),
		phaseNanos: reg.CounterVec("schedd_solver_phase_nanoseconds_total",
			"Cumulative solver wall time by simplex phase.", "phase"),
		sessionHealthy: reg.GaugeVec("schedd_session_healthy",
			"1 when every health condition of the session is Healthy, else 0.", "session"),
		degradedConds: reg.Gauge("schedd_health_degraded_conditions",
			"Number of Degraded health conditions across live sessions."),
	}
	reg.OnScrape(func() { s.collect(m) })
	return m
}

// collect mirrors pool, solver and health state into the registry —
// runs per scrape, never on the request path.
func (s *Server) collect(m *serverMetrics) {
	ps := s.Stats()
	m.poolHits.Set(ps.Hits)
	m.poolMisses.Set(ps.Misses)
	m.evictions.Set(ps.Evictions)
	m.liveSess.Set(float64(ps.Live))
	solver := ps.Total
	m.cacheHits.Set(ps.Cluster.CacheHits)
	m.cacheMisses.Set(ps.Cluster.CacheMisses)
	m.whatIfs.Set(ps.work.whatIfs)
	m.coalesced.Set(ps.work.coalesced)
	m.epochs.Set(ps.work.epochs)
	m.pivots.Set(uint64(solver.Pivots))
	m.refactors.Set(uint64(solver.Refactorizations))
	m.warmSolves.Set(uint64(solver.WarmSolves))
	m.coldSolves.Set(uint64(solver.ColdSolves))
	m.coldFallbacks.Set(uint64(solver.ColdFallbacks))
	m.boundFlips.Set(uint64(solver.BoundFlips))
	m.forks.Set(uint64(solver.Forks))
	m.phaseNanos.With("ftran").Set(uint64(solver.Phase.FTRANNanos))
	m.phaseNanos.With("btran").Set(uint64(solver.Phase.BTRANNanos))
	m.phaseNanos.With("pricing").Set(uint64(solver.Phase.PricingNanos))
	m.phaseNanos.With("ratio_test").Set(uint64(solver.Phase.RatioTestNanos))
	m.phaseNanos.With("refactor").Set(uint64(solver.Phase.RefactorNanos))

	// Rebuilt from the live rows on every scrape: a session that was
	// deleted, evicted or migrated away takes its series with it.
	m.sessionHealthy.Reset()
	degraded := 0
	for _, row := range ps.Sessions {
		healthy := 1.0
		for _, c := range row.Conditions {
			if c.Status == CondDegraded {
				healthy = 0
				degraded++
			}
		}
		m.sessionHealthy.With(sessionLabel(row.ID)).Set(healthy)
	}
	m.degradedConds.Set(float64(degraded))
}

// sessionLabel truncates a session digest for use as a label value:
// 12 hex characters keep series names readable and collisions
// irrelevant at pool scale.
func sessionLabel(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// traceInfo is the per-request observability state threaded through
// the context: the trace ID plus the routing decision the cluster
// layer records for the request log line. It is written and read by
// the one goroutine serving the request.
type traceInfo struct {
	id       string
	decision string // "local", "owner", "failover" (set by Node.route)
	target   string // peer that answered a forwarded request
	attempts int
	backoff  time.Duration
}

type traceCtxKey struct{}

// requestTrace returns the request's traceInfo, or nil when the
// request did not pass through the ingress middleware.
func requestTrace(r *http.Request) *traceInfo {
	ti, _ := r.Context().Value(traceCtxKey{}).(*traceInfo)
	return ti
}

// traceIDs are random 64-bit hex tags; uniqueness matters per log
// window, not cryptographically.
var (
	traceMu  sync.Mutex
	traceRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func newTraceID() string {
	traceMu.Lock()
	v := traceRNG.Uint64()
	traceMu.Unlock()
	return fmt.Sprintf("%016x", v)
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// instrument is the ingress middleware: adopt or mint the trace ID,
// echo it on the response, time the request into the per-endpoint and
// per-session histograms, and emit one structured request line with
// the route decision. Every handler wraps its route table in it once
// (Server.Handler, Node.Handler), so each request is counted once.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ti := &traceInfo{id: r.Header.Get(traceHeader), decision: "local"}
		if ti.id == "" {
			ti.id = newTraceID()
			// Stamp the request too, so the forwarding path propagates
			// one ID no matter where it was minted.
			r.Header.Set(traceHeader, ti.id)
		}
		w.Header().Set(traceHeader, ti.id)
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sr, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, ti)))
		dur := time.Since(start)
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		ep := endpointLabel(r.Method, r.URL.Path)
		s.metrics.reqLatency.With(ep).Observe(dur)
		if id, _, _ := sessionPath(r.URL.Path); id != "" {
			s.metrics.sessLatency.With(sessionLabel(id)).Observe(dur)
		}
		if !s.logger.Enabled(r.Context(), slog.LevelInfo) {
			return
		}
		attrs := []slog.Attr{
			slog.String("trace", ti.id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", ep),
			slog.Int("status", sr.status),
			slog.Duration("dur", dur),
			slog.String("route", ti.decision),
		}
		if ti.target != "" {
			attrs = append(attrs, slog.String("target", ti.target))
		}
		if ti.attempts > 1 || ti.backoff > 0 {
			attrs = append(attrs, slog.Int("attempts", ti.attempts), slog.Duration("backoff", ti.backoff))
		}
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// endpointLabel maps a request to its bounded endpoint label — never
// the raw path, which would blow metric cardinality.
func endpointLabel(method, path string) string {
	id, sub, ok := sessionPath(path)
	switch {
	case path == "/stats", path == "/healthz", path == "/metrics":
		return path[1:]
	case strings.HasPrefix(path, "/cluster/"):
		return "cluster"
	case !ok:
		return "other"
	case id == "" && sub == "":
		if method == http.MethodPost {
			return "create"
		}
		return "list"
	}
	switch sub {
	case "query", "whatif", "epoch", "platform":
		return sub
	case "whatif/batch":
		return "whatif_batch"
	case "":
		if method == http.MethodDelete {
			return "delete"
		}
		return "info"
	}
	return "other"
}

// discardLogger suppresses request lines unless the embedding binary
// wires a real logger (cmd/schedd does; library users and tests stay
// quiet by default).
func discardLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

// SetLogger installs the structured logger for request lines and
// cluster membership events.
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.logger = l
	}
}

// Logger returns the server's structured logger.
func (s *Server) Logger() *slog.Logger { return s.logger }

// Registry returns the server's metric registry, for embedding layers
// (the cluster Node) to register their own families into.
func (s *Server) Registry() *obs.Registry { return s.reg }
