package service

import (
	"testing"
	"time"

	"repro/internal/lp"
)

// TestSessionConditionsTable evaluates hand-built /stats rows — no
// session, no solver — through the pure evaluator: the server-side
// condition Healthy and Degraded, with the budget fraction probed at
// the boundary (the comparison is strict: an average exactly at it is
// still Healthy). The second condition, ReplicationLag, is the Node's
// hook and is judged from fan-out records the same way.
func TestSessionConditionsTable(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	solver := func(pivots, warm, cold, fallbacks int) lp.Stats {
		return lp.Stats{Pivots: pivots, WarmSolves: warm, ColdSolves: cold, ColdFallbacks: fallbacks}
	}
	rows := []struct {
		name   string
		row    SessionStats
		status string
	}{
		{"warm: no warm solve yet is unjudged", SessionStats{warmPivotBudget: 100, Solver: solver(900, 0, 1, 0)}, CondHealthy},
		{"warm: average at the budget fraction", SessionStats{warmPivotBudget: 100, Solver: solver(500, 9, 1, 0)}, CondHealthy},
		{"warm: average above the budget fraction", SessionStats{warmPivotBudget: 100, Solver: solver(501, 9, 1, 0)}, CondDegraded},
		{"warm: one cold fallback", SessionStats{warmPivotBudget: 100, Solver: solver(10, 9, 1, 1)}, CondDegraded},
		{"cache: no hit over many lookups is not a condition", SessionStats{warmPivotBudget: 100, Solver: solver(10, 9, 1, 0), CacheMisses: 1000}, CondHealthy},
	}
	for _, row := range rows {
		conds := sessionConditions(&row.row)
		if len(conds) != 1 || conds[0].Type != CondWarmHeadroom {
			t.Fatalf("%s: conditions %+v, want the one server-side %s", row.name, conds, CondWarmHeadroom)
		}
		if conds[0].Status != row.status {
			t.Errorf("%s: %s is %s (%s), want %s", row.name, conds[0].Type, conds[0].Status, conds[0].Message, row.status)
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
