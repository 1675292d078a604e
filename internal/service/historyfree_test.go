package service

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/lp"
)

// asked is what one uncached what-if reports and what it cost: the body,
// and the counters it moved.
type asked struct {
	rep  *SolveReport
	body []byte
	cost lp.Stats
}

// ask answers q on s afresh (the answer table is flushed first).
func ask(t *testing.T, s *Session, q WhatIfRequest) asked {
	t.Helper()
	s.answers.flush()
	before := s.Stats().Solver
	rep, err := s.WhatIf(&q)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Solver
	return asked{rep: rep, body: mustEncode(t, rep), cost: lp.Stats{
		Pivots:           after.Pivots - before.Pivots,
		PrimalPivots:     after.PrimalPivots - before.PrimalPivots,
		DualPivots:       after.DualPivots - before.DualPivots,
		BoundFlips:       after.BoundFlips - before.BoundFlips,
		Refactorizations: after.Refactorizations - before.Refactorizations,
		ColdSolves:       after.ColdSolves - before.ColdSolves,
		WarmSolves:       after.WarmSolves - before.WarmSolves,
		ColdFallbacks:    after.ColdFallbacks - before.ColdFallbacks,
		DSEWeightResets:  after.DSEWeightResets - before.DSEWeightResets,
	}}
}

// TestWhatIfCostIsHistoryFree: a what-if starts from the committed
// factorization and is rewound to it, so its answer and its cost are a
// function of (committed state, request). On lprg, lprr and bnb
// sessions the same requests — a relaxed, a boxed and a heuristic
// what-if — asked first, after 300 unrelated mixed what-ifs (relaxed,
// boxed, crossed, heuristic, one box the simplex finds infeasible) and
// after 64-query batches over 1, 4 and 64 forks return the same bytes,
// for the same pivots, refactorizations, bound flips and weight resets;
// and a batch's report
// for such a request carries the single what-if's verdict and bound
// exactly, on whichever fork it ran. No clock is read.
func TestWhatIfCostIsHistoryFree(t *testing.T) {
	const K = 6
	pl, payoffs := tightPlatform(t, K, 11)
	for _, heur := range []string{"lprg", "lprr", "bnb"} {
		t.Run(heur, func(t *testing.T) {
			s, _, err := NewPool(1).GetOrCreate(&CreateSessionRequest{
				Platform: platformJSON(t, pl), Objective: "sum", Heuristic: heur, Payoffs: payoffs, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			routes := s.model.BetaVars()
			if len(routes) == 0 || len(pl.Links) == 0 {
				t.Fatal("platform has no backbone routes")
			}
			// The commit is frozen by whichever what-if comes first, at up to
			// one refactorization; do it here so that no probe is charged.
			if err := s.model.Freeze(); err != nil {
				t.Fatal(err)
			}

			r0 := routes[0]
			probes := []WhatIfRequest{
				{Relax: true, Speeds: []ClusterValue{{Cluster: 1, Value: 35}}, Gateways: []ClusterValue{{Cluster: 2, Value: 60}}},
				{Bounds: []RouteBounds{{From: r0.K, To: r0.L, Lb: 1, Ub: 2}}, Links: []LinkValue{{Link: 0, MaxConnect: 3}}},
				{Gateways: []ClusterValue{{Cluster: 0, Value: 90}}, Speeds: []ClusterValue{{Cluster: 3, Value: 55}}}, // heuristic
			}
			first := make([]asked, len(probes))
			for i, q := range probes {
				first[i] = ask(t, s, q)
			}
			if !first[0].rep.Relaxed || !first[1].rep.Relaxed || first[2].rep.Relaxed || first[0].cost.Pivots == 0 {
				t.Fatalf("probes are not the relaxed / boxed / heuristic mix intended (relaxed probe: %d pivots)", first[0].cost.Pivots)
			}
			again := func(when string) {
				t.Helper()
				for i, q := range probes {
					got := ask(t, s, q)
					if !bytes.Equal(got.body, first[i].body) {
						t.Fatalf("%s: probe %d answers differently\n got %s\nwant %s", when, i, got.body, first[i].body)
					}
					if got.cost != first[i].cost {
						t.Fatalf("%s: probe %d cost %+v, first time %+v", when, i, got.cost, first[i].cost)
					}
				}
			}
			again("asked twice")

			// Every β route held open at once: no box is crossed, and the
			// links cannot carry them all.
			var all []RouteBounds
			for _, p := range routes {
				all = append(all, RouteBounds{From: p.K, To: p.L, Lb: 1, Ub: -1})
			}
			kinds := map[string]int{}
			for i := 0; i < 300; i++ {
				k, p := i%K, routes[i%len(routes)]
				q := WhatIfRequest{
					Speeds:   []ClusterValue{{Cluster: k, Value: 20 + float64(7*i%150)}},
					Gateways: []ClusterValue{{Cluster: (k + 1) % K, Value: 30 + float64(11*i%400)}},
					Links:    []LinkValue{{Link: i % len(pl.Links), MaxConnect: float64(2 + i%7)}},
				}
				switch {
				case i == 150:
					q = WhatIfRequest{Bounds: all}
				case i%4 == 0:
					q.Relax = true
				case i%4 == 1:
					q.Bounds = []RouteBounds{{From: p.K, To: p.L, Lb: float64(i % 2), Ub: float64(1 + i%3)}}
				case i%4 == 2:
					q.Bounds = []RouteBounds{{From: p.K, To: p.L, Lb: 1e6, Ub: -1}} // crossed
				}
				got := ask(t, s, q)
				switch {
				case got.rep.Feasible && got.rep.Relaxed:
					kinds["relaxed"]++
				case got.rep.Feasible:
					kinds["heuristic"]++
				case got.cost.WarmSolves+got.cost.ColdSolves == 0:
					kinds["crossed"]++
				default:
					kinds["infeasible"]++
				}
			}
			if kinds["relaxed"] < 100 || kinds["heuristic"] < 50 || kinds["crossed"] < 50 || kinds["infeasible"] < 1 {
				t.Fatalf("what-if mix %v: not the mix intended", kinds)
			}
			again(fmt.Sprintf("after %v", kinds))

			// The first two probes inside a batch: whichever fork they land
			// on, the verdict and bound are the single what-if's.
			queries := append(batchMutations(pl, routes, 62), probes[0], probes[1])
			for _, workers := range []int{1, 4, 64} {
				resp, err := s.WhatIfBatch(&BatchWhatIfRequest{Queries: queries, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					got, want := resp.Reports[62+i], first[i].rep
					if got.Feasible != want.Feasible || got.LPBound != want.LPBound || got.Value != want.Value {
						t.Fatalf("workers %d: batch answers probe %d feasible %v bound %v, the single what-if %v %v",
							workers, i, got.Feasible, got.LPBound, want.Feasible, want.LPBound)
					}
				}
				again(fmt.Sprintf("after a %d-query batch over %d forks", len(queries), resp.Workers))
			}
		})
	}
}
