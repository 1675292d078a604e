package service

import (
	"encoding/json"

	"repro/internal/lp"
)

// This file defines the service's JSON wire types. cmd/dlsched -json
// emits the same SolveReport, so a batch CLI answer and a service
// answer for the same platform and heuristic are directly diffable.

// CreateSessionRequest opens (or re-attaches to) a warm solver
// session. Platform is the standard platform JSON, exactly as emitted
// by cmd/platgen; it is validated before a model is built.
type CreateSessionRequest struct {
	Platform json.RawMessage `json:"platform"`
	// Objective is "maxmin" (default) or "sum".
	Objective string `json:"objective,omitempty"`
	// Heuristic is "lprg" (default), "lprr", "lprr-eq" or "bnb" —
	// the solution methods with warm persistent-model entry points.
	Heuristic string `json:"heuristic,omitempty"`
	// Payoffs are the per-application payoff factors π_k; defaults to
	// all 1. Length must equal the platform's cluster count.
	Payoffs []float64 `json:"payoffs,omitempty"`
	// Seed drives the randomized heuristics (lprr, lprr-eq). Every
	// solve reseeds from it, so a session's answers are deterministic
	// and equal to a batch run with the same seed.
	Seed int64 `json:"seed,omitempty"`
	// MaxNodes bounds the bnb search per solve; <= 0 uses the solver
	// default.
	MaxNodes int `json:"maxNodes,omitempty"`
}

// SessionInfo describes one pooled session.
type SessionInfo struct {
	// ID keys the session in the pool: a digest of the platform
	// fingerprint and the solver configuration.
	ID string `json:"id"`
	// Fingerprint is the platform description's content hash
	// (platform.Fingerprint) at session creation.
	Fingerprint string `json:"fingerprint"`
	K           int    `json:"k"`
	Routers     int    `json:"routers"`
	Links       int    `json:"links"`
	// Rows is the warm model's constraint row count (the basis
	// dimension every simplex iteration pays for).
	Rows      int    `json:"rows"`
	Objective string `json:"objective"`
	Heuristic string `json:"heuristic"`
	// Epoch counts committed capacity updates since creation.
	Epoch int `json:"epoch"`
}

// CreateSessionResponse is the answer to POST /sessions.
type CreateSessionResponse struct {
	SessionInfo
	// Created is false when an existing warm session was re-attached
	// (pool hit) instead of built.
	Created bool `json:"created"`
	// Report is the solve on the (current) platform: the initial cold
	// solve for a fresh session, a warm re-solve on a pool hit.
	Report *SolveReport `json:"report"`
}

// ClusterValue addresses one cluster's capacity in a what-if.
type ClusterValue struct {
	Cluster int     `json:"cluster"`
	Value   float64 `json:"value"`
}

// LinkValue addresses one backbone link's connection budget in a
// what-if. MaxConnect must be a whole number of connections (the
// paper's budgets are integral); fractional values are rejected.
type LinkValue struct {
	Link       int     `json:"link"`
	MaxConnect float64 `json:"maxConnect"`
}

// RouteBounds pins or boxes one remote route's connection count β in
// a what-if: lb <= β_{from,to} <= ub. Ub < 0 means unbounded above
// (the route's natural link-budget cap applies). Bound what-ifs are
// answered with the rational relaxation (Relax is implied): the
// integer heuristics re-derive β themselves and would discard the
// pin.
type RouteBounds struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Lb   float64 `json:"lb"`
	Ub   float64 `json:"ub"`
}

// WhatIfRequest asks "what would the allocation be if these
// capacities (and β bounds) held" without committing anything: the
// session's model is mutated, solved warm from the committed basis,
// and rolled back exactly. Identical concurrent what-ifs on a session
// are coalesced into one solve.
type WhatIfRequest struct {
	Speeds   []ClusterValue `json:"speeds,omitempty"`
	Gateways []ClusterValue `json:"gateways,omitempty"`
	Links    []LinkValue    `json:"links,omitempty"`
	Bounds   []RouteBounds  `json:"bounds,omitempty"`
	// Relax answers with the rational relaxation (the LP upper bound
	// and its fractional allocation) instead of the session's integer
	// heuristic. Implied when Bounds is non-empty.
	Relax bool `json:"relax,omitempty"`
}

// BatchWhatIfRequest asks N hypotheticals against one session in a
// single round trip. Every query is answered with the rational
// relaxation (Relax is implied — batch reports carry no heuristic
// allocation) against the same committed session state, decoded once,
// deduplicated by canonical JSON (the single-flight key the
// one-query endpoint uses) and fanned out over a bounded pool of
// forked solve contexts. Each verdict and bound is the one POST
// /sessions/{id}/whatif with Relax set returns for that query, exactly:
// a fork starts where the session's own what-if does.
type BatchWhatIfRequest struct {
	Queries []WhatIfRequest `json:"queries"`
	// Workers bounds the fork pool; <= 0 uses the service default and
	// more than 64 is refused (400). The pool never exceeds the number
	// of distinct queries.
	Workers int `json:"workers,omitempty"`
}

// BatchWhatIfResponse answers POST /sessions/{id}/whatif/batch.
// Reports line up with Queries; a duplicate query's report is a copy
// of its twin's with Coalesced set. Reports are lean — value, bound
// and feasibility only, no allocation tables — and a batch over the
// wire diffs clean against cmd/dlsched -batch.
type BatchWhatIfResponse struct {
	Reports []*SolveReport `json:"reports"`
	// Distinct counts the unique queries actually solved.
	Distinct int `json:"distinct"`
	// Workers is the fork-pool width used.
	Workers int `json:"workers"`
	// Epoch is the committed session epoch every answer was computed
	// against.
	Epoch int `json:"epoch"`
}

// EpochRequest commits one epoch of capacity drift to the session —
// the adapt.Perturbation factors, applied to the session's current
// platform — and re-solves warm from the carried basis. Nil factor
// slices leave that capacity class unchanged; otherwise lengths must
// match the platform (clusters for gateway/speed, links for link).
type EpochRequest struct {
	GatewayFactor []float64 `json:"gatewayFactor,omitempty"`
	SpeedFactor   []float64 `json:"speedFactor,omitempty"`
	LinkFactor    []float64 `json:"linkFactor,omitempty"`
}

// SolveReport is one solve's answer — the service's query/what-if/
// epoch response body, and cmd/dlsched's -json output. It is a function
// of the committed state and the question asked, nothing else: the
// solver's counters, which depend on what the session did before, are
// served by /stats and /metrics, not in an answer.
type SolveReport struct {
	Heuristic string `json:"heuristic"`
	Objective string `json:"objective"`
	// Feasible is false only for bound what-ifs whose β box admits no
	// solution; the allocation fields are then absent.
	Feasible bool `json:"feasible"`
	// Value is the allocation's objective value; for relaxation
	// answers it equals LPBound.
	Value float64 `json:"value"`
	// LPBound is the rational relaxation's optimum under the same
	// capacities — the upper bound the paper's tables normalize by.
	LPBound float64 `json:"lpBound"`
	// Throughputs is α_k = Σ_l α_{k,l} per application.
	Throughputs []float64   `json:"throughputs,omitempty"`
	Alpha       [][]float64 `json:"alpha,omitempty"`
	// Beta holds the integer connection counts (heuristic answers).
	Beta [][]int `json:"beta,omitempty"`
	// BetaFrac holds the fractional β̃ of relaxation answers.
	BetaFrac [][]float64 `json:"betaFrac,omitempty"`
	// Relaxed marks relaxation answers (Relax/Bounds what-ifs).
	Relaxed bool `json:"relaxed,omitempty"`
	// Epoch is the session epoch the answer was computed at (0 for
	// batch CLI reports).
	Epoch int `json:"epoch"`
	// Coalesced marks an answer shared from an identical concurrent
	// what-if rather than solved separately.
	Coalesced bool `json:"coalesced,omitempty"`
	// Cached marks an answer served from the committed-state answer
	// cache instead of solved. Apart from this flag the report is
	// byte-identical to a fresh solve of the same question: over HTTP a
	// hit is that body with the member `"cached": true` after "epoch",
	// served from bytes stored with the cache entry.
	Cached bool `json:"cached,omitempty"`

	// Not on the wire: a relaxed what-if's tables told as the frozen
	// answer's plus the cells that moved, in place of Alpha and BetaFrac
	// (see tableDiff). Shared by every copy of the report: read-only.
	diff *tableDiff
}

// SessionStats is one session's /stats row.
type SessionStats struct {
	SessionInfo
	WhatIfs          uint64 `json:"whatIfs"`
	CoalescedWhatIfs uint64 `json:"coalescedWhatIfs"`
	Epochs           uint64 `json:"epochs"`
	// CacheHits/CacheMisses count this session's answer-cache
	// activity (queries and what-ifs served without a solve vs cache
	// consults that went on to solve).
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	// Solver is the session's cumulative lp.Revised counters: the
	// warm/cold solve split, pivots, refactorizations, bound flips —
	// and, since the observability layer, wall time per simplex phase.
	Solver lp.Stats `json:"solver"`
	// Conditions are the session's evaluated health conditions
	// (warm-pivot headroom and — on ring nodes — replication lag). Empty in responses assembled
	// without a condition evaluator (bare Pool.Stats).
	Conditions []Condition `json:"conditions,omitempty"`

	// warmPivotBudget is captured with the counters above for the
	// condition evaluator; it is not on the wire.
	warmPivotBudget int
}

// PoolStatsResponse is the /stats response body. It holds what one
// pool walk gathers for /stats, /metrics and /healthz; every other
// counter is on /metrics alone.
type PoolStatsResponse struct {
	Live      int    `json:"live"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Total aggregates the solver counters of every session the pool
	// has held: the live ones and the evicted ones.
	Total    lp.Stats       `json:"total"`
	Sessions []SessionStats `json:"sessions"`
	// Cluster aggregates the cluster counters pool-wide: answer-cache
	// activity merged over live and retired sessions, plus — when the
	// process runs as a ring node — this replica's forwarding and
	// replication counters.
	Cluster ClusterStats `json:"cluster"`

	// work sums the rows' what-if, coalesced and epoch counters over
	// live and retired sessions, for /metrics; it is not on the wire.
	work workCounts
}

// workCounts is a pool-wide sum of SessionStats' WhatIfs,
// CoalescedWhatIfs and Epochs.
type workCounts struct{ whatIfs, coalesced, epochs uint64 }

func (w *workCounts) add(st *SessionStats) {
	w.whatIfs += st.WhatIfs
	w.coalesced += st.CoalescedWhatIfs
	w.epochs += st.Epochs
}

// ClusterStats is the /stats cluster section.
type ClusterStats struct {
	// CacheHits/CacheMisses merge every session's answer-cache
	// counters (live sessions plus the retired aggregate), like the
	// solver totals above.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	// Retries counts forwarding re-sends; Failovers the subset that
	// went to a ring successor instead of the primary owner.
	// ReplicasSent/ReplicaErrors count outbound snapshot fan-outs
	// (acked vs failed).
	Retries       uint64 `json:"retries,omitempty"`
	Failovers     uint64 `json:"failovers,omitempty"`
	ReplicasSent  uint64 `json:"replicasSent,omitempty"`
	ReplicaErrors uint64 `json:"replicaErrors,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
