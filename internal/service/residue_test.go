package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// recommit runs the commit solve (commitLocked) again on s's committed
// state and returns the report it publishes as the committed answer, in
// a new committed state at the same epoch (so the answer table keeps its
// entries). A query never solves, so this is how a test holds the
// committed answer to a fresh solve of the same state.
func recommit(t testing.TB, s *Session) *SolveReport {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	c := *s.state.Load()
	rep, basis, err := s.commitLocked(c.pr, c.basis, c.epoch)
	if err != nil {
		t.Fatal(err)
	}
	c.basis, c.answer, c.recorded = basis, newAnswer(rep, nil), false
	s.state.Store(&c)
	return rep
}

// committedBody is the body of the session's committed answer solved
// afresh (recommit), as a create or commit response carries it: what
// POST /sessions/{id}/query then sends, bar its "cached" line.
func committedBody(t testing.TB, s *Session) []byte {
	t.Helper()
	return mustEncode(t, recommit(t, s))
}

// TestWhatIfLeavesNoResidue: a what-if is posed on the session's one
// model, retracted by writing back the committed value of every capacity
// it listed, and the solver rewound to the factorization frozen after
// the last commit. So on lprg, lprr and bnb sessions, after 200 mixed
// what-ifs — relaxed, boxed, crossed, heuristic (LPRR leaves pins and BnB
// node bounds behind), rejected — the committed answer, solved afresh, is
// byte for byte what it was before. The same holds for a 64-query batch
// over forks racing an epoch commit. A control session that makes the
// same commits and sees no what-if must agree throughout.
func TestWhatIfLeavesNoResidue(t *testing.T) {
	const K = 6
	pl, payoffs := tightPlatform(t, K, 11)
	for _, heur := range []string{"lprg", "lprr", "bnb"} {
		t.Run(heur, func(t *testing.T) {
			newSess := func() *Session {
				s, _, err := NewPool(1).GetOrCreate(&CreateSessionRequest{
					Platform: platformJSON(t, pl), Objective: "sum", Heuristic: heur, Payoffs: payoffs, Seed: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			// The control is solved in lockstep with s — same commits, same
			// fresh solves — and never sees a what-if.
			s, control := newSess(), newSess()
			fresh := func(when string) []byte {
				t.Helper()
				got, want := committedBody(t, s), committedBody(t, control)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: committed answer differs from the control's\n got %s\nwant %s", when, got, want)
				}
				return got
			}
			routes := s.model.BetaVars()
			if len(routes) == 0 || len(pl.Links) == 0 {
				t.Fatal("platform has no backbone routes")
			}
			before := fresh("at creation")

			kinds := map[string]int{}
			for i := 0; i < 200; i++ {
				k, p := i%K, routes[i%len(routes)]
				li := i % len(pl.Links)
				q := WhatIfRequest{
					Speeds:   []ClusterValue{{Cluster: k, Value: 20 + float64(7*i%150)}},
					Gateways: []ClusterValue{{Cluster: (k + 1) % K, Value: 30 + float64(11*i%400)}},
					Links:    []LinkValue{{Link: li, MaxConnect: float64(i % 7)}},
				}
				reject := false
				switch i % 5 {
				case 0:
					q.Relax = true
				case 1:
					q.Bounds = []RouteBounds{{From: p.K, To: p.L, Lb: float64(i % 2), Ub: float64(1 + i%3)}}
				case 2:
					q.Bounds = []RouteBounds{{From: p.K, To: p.L, Lb: 1e6, Ub: -1}} // crossed
				case 3:
					// heuristic: neither relaxed nor boxed
				case 4:
					// Valid capacities, a valid box, then a box on a local
					// route, which has no β variable.
					q.Bounds = []RouteBounds{{From: p.K, To: p.L, Lb: 0, Ub: 1}, {From: k, To: k, Lb: 0, Ub: 1}}
					reject = true
				}
				rep, err := s.WhatIf(&q)
				switch {
				case reject && err == nil:
					t.Fatalf("what-if %d: a box on a route with no β variable was accepted", i)
				case reject:
					kinds["rejected"]++
				case err != nil:
					t.Fatalf("what-if %d: %v", i, err)
				case !rep.Feasible:
					kinds["infeasible"]++
				case rep.Relaxed:
					kinds["relaxed"]++
				default:
					kinds["heuristic"]++
				}
			}
			for _, kind := range []string{"rejected", "infeasible", "relaxed", "heuristic"} {
				if kinds[kind] < 20 {
					t.Fatalf("what-if mix %v: too few %s ones for the test to mean anything", kinds, kind)
				}
			}
			if after := fresh(fmt.Sprintf("after what-ifs %v", kinds)); !bytes.Equal(after, before) {
				t.Fatalf("committed answer changed across what-ifs %v\nbefore:\n%s\nafter:\n%s", kinds, before, after)
			}

			// A batch over forks, racing an epoch commit.
			batch := &BatchWhatIfRequest{Queries: batchMutations(pl, routes, 64), Workers: 4}
			epoch := &EpochRequest{SpeedFactor: driftFactors(K, 0.9), GatewayFactor: driftFactors(K, 0.95)}
			var (
				wg       sync.WaitGroup
				resp     *BatchWhatIfResponse
				batchErr error
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, batchErr = s.WhatIfBatch(batch)
			}()
			if _, err := s.Epoch(epoch); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if batchErr != nil {
				t.Fatal(batchErr)
			}

			// The control answers the batch at whichever committed state the
			// racing one was pinned to.
			var want *BatchWhatIfResponse
			var err error
			if resp.Epoch == 0 {
				want, err = control.WhatIfBatch(batch)
			}
			if err == nil {
				_, err = control.Epoch(epoch)
			}
			if err == nil && resp.Epoch == 1 {
				want, err = control.WhatIfBatch(batch)
			}
			if err != nil || want == nil {
				t.Fatalf("control: err %v, batch pinned to epoch %d", err, resp.Epoch)
			}
			got, _ := json.Marshal(resp)
			exp, _ := json.Marshal(want)
			if !bytes.Equal(got, exp) {
				t.Fatalf("batch racing a commit (pinned to epoch %d) differs from the control's\n got %s\nwant %s", resp.Epoch, got, exp)
			}
			fresh("after batch ∥ commit")
		})
	}
}
