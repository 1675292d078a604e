package service

import (
	"fmt"
	"net/http"
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

// warmBudgetFraction is the share of the warm pivot budget an average
// solve may use before CondWarmHeadroom degrades.
const warmBudgetFraction = 0.5

// sessionConditions evaluates the server-side conditions of one
// session from its /stats row — a pure function, so every surface that
// reports conditions judges the same snapshot.
func sessionConditions(st *SessionStats) []Condition {
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
		case avg > warmBudgetFraction*float64(budget):
			wc.Status = CondDegraded
			wc.Message = fmt.Sprintf("avg %.0f pivots/solve above %.0f%% of warm budget %d",
				avg, 100*warmBudgetFraction, budget)
		default:
			wc.Message = fmt.Sprintf("avg %.0f pivots/solve, budget %d", avg, budget)
		}
	}
	return []Condition{wc}
}

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
	for i := range resp.Sessions {
		row := &resp.Sessions[i]
		row.Conditions = sessionConditions(row)
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
