package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestQueryNeverSolves: a query reads the answer the last commit solve
// published, and nothing else. On lprg, lprr and bnb sessions over a
// K = 20 tight platform, a query after the create, after more distinct
// relaxed what-ifs than the answer table holds, after a 64-query batch
// and after an epoch commit
//   - answers the create's (or the commit's) report body plus its
//     "cached" line,
//   - moves no solver counter, and
//   - leaves the solver on its frozen state: a relaxed what-if asked
//     just before it and again just after it is spliced from the same
//     encoded tables at the same pivots.
//
// A query that solved again (Rebase, the heuristic, the bound) would
// move the counters, and the next what-if would freeze anew and rebuild
// the tables.
func TestQueryNeverSolves(t *testing.T) {
	const K, whatIfs = 20, 300
	if whatIfs <= sessionCacheCap {
		t.Fatalf("%d what-ifs do not pass the answer table's %d entries", whatIfs, sessionCacheCap)
	}
	pl, payoffs := tightPlatform(t, K, 11)
	for _, heur := range []string{"lprg", "lprr", "bnb"} {
		t.Run(heur, func(t *testing.T) {
			srv := NewServer(NewPool(1))
			h := srv.Handler()
			req, err := json.Marshal(&CreateSessionRequest{
				Platform: platformJSON(t, pl), Heuristic: heur, Payoffs: payoffs, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := serve(h, "/sessions", string(req))
			if rec.Code != http.StatusCreated {
				t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
			}
			var created CreateSessionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
				t.Fatal(err)
			}
			s := srv.Pool().Get(created.ID)
			base := "/sessions/" + created.ID

			probe := WhatIfRequest{Gateways: []ClusterValue{{Cluster: 1, Value: pl.Clusters[1].Gateway * 0.1}}, Relax: true}
			key, _ := appendWhatIfKey(nil, &probe)
			// spliced asks the probe afresh — its entry, and no other, is
			// dropped from the answer table first — and returns the tables
			// its answer was spliced from and the pivots it took.
			spliced := func(when string) (*tableBody, uint64) {
				t.Helper()
				s.answers.mu.Lock()
				if a := s.answers.entries[string(key)]; a != nil && a.elem != nil {
					s.answers.dropLocked(a)
				}
				s.answers.mu.Unlock()
				before := s.Stats().Solver.Pivots
				rep, _, err := s.whatIf(&probe)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if rep == nil || rep.diff == nil {
					t.Fatalf("%s: the probe what-if was not spliced from the frozen answer", when)
				}
				return rep.diff.body, uint64(s.Stats().Solver.Pivots - before)
			}
			check := func(when string, want []byte) {
				t.Helper()
				tables, pivots := spliced(when)
				before := s.Stats().Solver
				got := okBody(t, h, base+"/query", "")
				after := s.Stats().Solver
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: the query is not the committed report plus its cached line\n got %s\nwant %s", when, got, want)
				}
				if after.Pivots != before.Pivots || after.Refactorizations != before.Refactorizations ||
					after.WarmSolves != before.WarmSolves || after.ColdSolves != before.ColdSolves ||
					after.ColdFallbacks != before.ColdFallbacks {
					t.Fatalf("%s: the query moved the solver: pivots %d→%d, refactorizations %d→%d, warm %d→%d, cold %d→%d, cold fallbacks %d→%d",
						when, before.Pivots, after.Pivots, before.Refactorizations, after.Refactorizations,
						before.WarmSolves, after.WarmSolves, before.ColdSolves, after.ColdSolves, before.ColdFallbacks, after.ColdFallbacks)
				}
				again, pivotsAgain := spliced(when + ", after the query")
				if again != tables || pivotsAgain != pivots {
					t.Fatalf("%s: the query moved the solver off its frozen state: the next what-if was spliced from the same tables %v, at %d pivots (%d before the query)",
						when, again == tables, pivotsAgain, pivots)
				}
			}

			createBody := withCachedLine(t, mustEncode(t, created.Report))
			check("after the create", createBody)

			for i := 0; i < whatIfs; i++ {
				c := i % K
				okBody(t, h, base+"/whatif", fmt.Sprintf(`{"gateways":[{"cluster":%d,"value":%g}],"relax":true}`,
					c, pl.Clusters[c].Gateway*(0.5+float64(i)/(2*whatIfs))))
			}
			check(fmt.Sprintf("after %d distinct what-ifs", whatIfs), createBody)

			batch, err := json.Marshal(&BatchWhatIfRequest{Queries: batchMutations(pl, s.model.BetaVars(), 64)})
			if err != nil {
				t.Fatal(err)
			}
			okBody(t, h, base+"/whatif/batch", string(batch))
			check("after a batch", createBody)

			epoch, err := json.Marshal(&EpochRequest{SpeedFactor: driftFactors(K, 0.9), GatewayFactor: driftFactors(K, 1.1)})
			if err != nil {
				t.Fatal(err)
			}
			check("after a commit", withCachedLine(t, okBody(t, h, base+"/epoch", string(epoch))))
		})
	}
}
