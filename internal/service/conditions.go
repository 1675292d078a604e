package service

import (
	"fmt"
	"net/http"
	"time"
)

// Condition status values. Two states on purpose: a condition is
// either Healthy or Degraded; "unknown" is expressed by not emitting
// the condition at all.
const (
	CondHealthy  = "Healthy"
	CondDegraded = "Degraded"
)

// Condition types.
const (
	// CondWarmHeadroom degrades when warm restarts run close to (or
	// fall through) the warm pivot budget — the session is paying for
	// cold solves it was built to avoid.
	CondWarmHeadroom = "WarmPivotHeadroom"
	// CondCacheHitRate degrades when the answer cache sees traffic but
	// essentially never hits — e.g. a client mutating state on every
	// query, defeating the cache it is paying digests for.
	CondCacheHitRate = "CacheHitRate"
	// CondCommitStaleness degrades when the session has not committed
	// an epoch within the configured window (0 disables; the condition
	// is still reported Healthy with the observed age).
	CondCommitStaleness = "CommitStaleness"
	// CondReplicationLag degrades when the session's most recent
	// snapshot fan-out failed to reach one or more replicas — a
	// failover now would lose the last committed epochs on those peers.
	// Only emitted when the process runs as a ring node.
	CondReplicationLag = "ReplicationLag"
)

// A Condition is one evaluated health signal for a session, reported
// in /stats rows, summarized by /healthz and mirrored into /metrics.
type Condition struct {
	Type    string `json:"type"`
	Status  string `json:"status"`
	Message string `json:"message,omitempty"`
}

// HealthThresholds parameterizes the condition evaluator. The zero
// value is NOT useful — use DefaultHealthThresholds and override
// fields as needed.
type HealthThresholds struct {
	// WarmBudgetFraction flags CondWarmHeadroom when the average pivot
	// count per warm solve exceeds this fraction of the session's warm
	// pivot budget, or when any warm solve has already fallen back
	// cold.
	WarmBudgetFraction float64
	// CacheMinLookups is the minimum answer-cache traffic before
	// CondCacheHitRate is judged at all (small samples say nothing).
	CacheMinLookups uint64
	// CacheMinHitRate is the hit-rate floor below which
	// CondCacheHitRate degrades.
	CacheMinHitRate float64
	// StaleCommitAfter bounds the age of the last committed state
	// change before CondCommitStaleness degrades; 0 disables the
	// degradation (the age is still reported).
	StaleCommitAfter time.Duration
}

// DefaultHealthThresholds returns the evaluator defaults.
func DefaultHealthThresholds() HealthThresholds {
	return HealthThresholds{
		WarmBudgetFraction: 0.5,
		CacheMinLookups:    64,
		CacheMinHitRate:    0.01,
	}
}

// sessionConditions evaluates the server-side conditions of one
// session from its /stats row — a pure function, so every surface that
// reports conditions judges the same snapshot.
func sessionConditions(st *SessionStats, th HealthThresholds, now time.Time) []Condition {
	conds := make([]Condition, 0, 4)

	// Warm-pivot headroom.
	budget := st.warmPivotBudget
	warm := st.Solver.WarmSolves
	wc := Condition{Type: CondWarmHeadroom, Status: CondHealthy}
	if budget > 0 && warm > 0 {
		avg := float64(st.Solver.Pivots) / float64(warm+st.Solver.ColdSolves)
		switch {
		case st.Solver.ColdFallbacks > 0:
			wc.Status = CondDegraded
			wc.Message = fmt.Sprintf("%d of %d warm solves fell back cold (budget %d pivots)",
				st.Solver.ColdFallbacks, warm, budget)
		case avg > th.WarmBudgetFraction*float64(budget):
			wc.Status = CondDegraded
			wc.Message = fmt.Sprintf("avg %.0f pivots/solve above %.0f%% of warm budget %d",
				avg, 100*th.WarmBudgetFraction, budget)
		default:
			wc.Message = fmt.Sprintf("avg %.0f pivots/solve, budget %d", avg, budget)
		}
	}
	conds = append(conds, wc)

	// Answer-cache effectiveness.
	lookups := st.CacheHits + st.CacheMisses
	cc := Condition{Type: CondCacheHitRate, Status: CondHealthy}
	if lookups >= th.CacheMinLookups && th.CacheMinLookups > 0 {
		rate := float64(st.CacheHits) / float64(lookups)
		if rate < th.CacheMinHitRate {
			cc.Status = CondDegraded
			cc.Message = fmt.Sprintf("hit rate %.3f below %.3f over %d lookups",
				rate, th.CacheMinHitRate, lookups)
		} else {
			cc.Message = fmt.Sprintf("hit rate %.3f over %d lookups", rate, lookups)
		}
	}
	conds = append(conds, cc)

	// Last-commit staleness.
	age := now.Sub(st.lastCommit)
	sc := Condition{Type: CondCommitStaleness, Status: CondHealthy,
		Message: fmt.Sprintf("last commit %s ago", age.Round(time.Millisecond))}
	if th.StaleCommitAfter > 0 && age > th.StaleCommitAfter {
		sc.Status = CondDegraded
		sc.Message = fmt.Sprintf("no commit for %s (threshold %s)",
			age.Round(time.Millisecond), th.StaleCommitAfter)
	}
	return append(conds, sc)
}

// SetHealthThresholds replaces the condition-evaluator thresholds.
func (s *Server) SetHealthThresholds(th HealthThresholds) { s.health = th }

// SetConditionHook installs an extra per-session condition source.
// The cluster Node uses it to contribute replication-lag conditions,
// so /stats, /healthz and /metrics all see the same condition set.
func (s *Server) SetConditionHook(fn func(sessionID string) []Condition) { s.condHook = fn }

// Stats assembles the /stats response: the pool's counters decorated
// with the evaluated health conditions per session — the server-side
// ones plus any the embedding layer (the cluster Node) contributes via
// the hook; replication lag, today. It is the one walk over the pool:
// /stats, /metrics' collector and /healthz all render from its result,
// so a scrape takes each session's mutex once.
func (s *Server) Stats() PoolStatsResponse {
	resp := s.pool.Stats()
	now := time.Now()
	for i := range resp.Sessions {
		row := &resp.Sessions[i]
		row.Conditions = sessionConditions(row, s.health, now)
		if s.condHook != nil {
			row.Conditions = append(row.Conditions, s.condHook(row.ID)...)
		}
	}
	return resp
}

// HealthResponse is the /healthz body. Status is "ok" (HTTP 200) or
// "degraded" (HTTP 503); Quorum is reported only by ring nodes.
type HealthResponse struct {
	Status string `json:"status"`
	// Quorum is whether this node currently sees a membership
	// majority; nil when the process is not a ring node.
	Quorum *bool `json:"quorum,omitempty"`
	// Degraded lists every Degraded condition as
	// "<session-prefix>: <type>: <message>".
	Degraded []string `json:"degraded,omitempty"`
}

// healthSummary collects the degraded conditions of every live
// session.
func (s *Server) healthSummary() HealthResponse {
	resp := HealthResponse{Status: "ok"}
	for _, row := range s.Stats().Sessions {
		for _, c := range row.Conditions {
			if c.Status == CondDegraded {
				resp.Degraded = append(resp.Degraded,
					fmt.Sprintf("%s: %s: %s", sessionLabel(row.ID), c.Type, c.Message))
			}
		}
	}
	if len(resp.Degraded) > 0 {
		resp.Status = "degraded"
	}
	return resp
}

// handleHealthz serves GET /healthz for a standalone server: 200 when
// every condition of every live session is Healthy, 503 with the
// degraded set otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeHealth(w, s.healthSummary())
}

// writeHealth answers a probe: 200 when ok, 503 otherwise.
func writeHealth(w http.ResponseWriter, resp HealthResponse) {
	code := http.StatusOK
	if resp.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}
