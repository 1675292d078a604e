package service

import (
	"testing"
	"time"

	"repro/internal/lp"
)

// TestSessionConditionsTable evaluates hand-built /stats rows — no
// session, no solver — through the pure evaluator: each server-side
// condition Healthy and Degraded, with the thresholds probed at the
// boundary (every comparison is strict: a value exactly at its
// threshold is still Healthy). The fourth condition, ReplicationLag,
// is the Node's hook and is judged from fan-out records the same way.
func TestSessionConditionsTable(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	th := HealthThresholds{WarmBudgetFraction: 0.5, CacheMinLookups: 64, CacheMinHitRate: 0.01, StaleCommitAfter: time.Minute}
	solver := func(pivots, warm, cold, fallbacks int) lp.Stats {
		return lp.Stats{Pivots: pivots, WarmSolves: warm, ColdSolves: cold, ColdFallbacks: fallbacks}
	}
	rows := []struct {
		name   string
		row    SessionStats
		th     HealthThresholds
		typ    string
		status string
	}{
		{"warm: no warm solve yet is unjudged", SessionStats{warmPivotBudget: 100, Solver: solver(900, 0, 1, 0)}, th, CondWarmHeadroom, CondHealthy},
		{"warm: average at the budget fraction", SessionStats{warmPivotBudget: 100, Solver: solver(500, 9, 1, 0)}, th, CondWarmHeadroom, CondHealthy},
		{"warm: average above the budget fraction", SessionStats{warmPivotBudget: 100, Solver: solver(501, 9, 1, 0)}, th, CondWarmHeadroom, CondDegraded},
		{"warm: one cold fallback", SessionStats{warmPivotBudget: 100, Solver: solver(10, 9, 1, 1)}, th, CondWarmHeadroom, CondDegraded},
		{"cache: below the minimum sample is unjudged", SessionStats{CacheMisses: 63}, th, CondCacheHitRate, CondHealthy},
		{"cache: no hit over the minimum sample", SessionStats{CacheMisses: 64}, th, CondCacheHitRate, CondDegraded},
		{"cache: hit rate at the floor", SessionStats{CacheHits: 1, CacheMisses: 99}, th, CondCacheHitRate, CondHealthy},
		{"cache: hit rate below the floor", SessionStats{CacheHits: 1, CacheMisses: 100}, th, CondCacheHitRate, CondDegraded},
		{"staleness: age at the threshold", SessionStats{lastCommit: now.Add(-time.Minute)}, th, CondCommitStaleness, CondHealthy},
		{"staleness: age past the threshold", SessionStats{lastCommit: now.Add(-time.Minute - time.Nanosecond)}, th, CondCommitStaleness, CondDegraded},
		{"staleness: disabled", SessionStats{lastCommit: now.Add(-24 * time.Hour)}, DefaultHealthThresholds(), CondCommitStaleness, CondHealthy},
	}
	for _, row := range rows {
		if row.row.lastCommit.IsZero() {
			row.row.lastCommit = now // committed just now, unless the row is about staleness
		}
		conds := sessionConditions(&row.row, row.th, now)
		if len(conds) != 3 {
			t.Fatalf("%s: %d conditions, want the three server-side ones: %+v", row.name, len(conds), conds)
		}
		for _, c := range conds {
			want := CondHealthy // a row degrades only the condition it is about
			if c.Type == row.typ {
				want = row.status
			}
			if c.Status != want {
				t.Errorf("%s: %s is %s (%s), want %s", row.name, c.Type, c.Status, c.Message, want)
			}
		}
	}

	n := NewNodeWithConfig(NewServer(NewPool(1)), "http://self", nil, nil, NodeConfig{})
	n.lastFanout.Store("reached", fanoutRecord{targets: 1, at: now})
	n.lastFanout.Store("lost", fanoutRecord{targets: 2, failed: 1, at: now})
	for id, want := range map[string]string{"reached": CondHealthy, "lost": CondDegraded, "never fanned out": ""} {
		got := ""
		if conds := n.replicationCondition(id); len(conds) == 1 && conds[0].Type == CondReplicationLag {
			got = conds[0].Status
		}
		if got != want {
			t.Errorf("ReplicationLag of %q is %q, want %q", id, got, want)
		}
	}
}
