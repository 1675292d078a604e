package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestQueryNeverSolves: a query reads the answer the last commit solve
// published, and nothing else. On lprg, lprr and bnb sessions over a
// K = 20 tight platform, a query after the create, after 300 distinct
// relaxed what-ifs (past the answer table's 256 entries), after a 64-query batch
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
// the tables: a build whose query solved again once the table had evicted
// the committed answer failed here after the 300 what-ifs, at lprg with
// +1 refactorization and +2 warm solves.
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

// TestFailedCommitRollsBack: a commit whose solve fails after its
// perturbation was injected — here a bnb search out of its node budget,
// 422 — publishes nothing, so the session is as it was before the
// commit: the same published committed state (the same pointer), so the
// platform and the epoch, the carried basis and the committed answer,
// and a model a what-if is answered on with the bytes it was answered
// with before. So
// a retry under the same commit ID applies the perturbation to the same
// platform again, and fails the same way, instead of halving the gateway
// a second time: tight K = 6 seed 2, bnb / sum / maxNodes 3, every
// gateway × 0.5 tagged "c1", sent twice. The session then still commits.
func TestFailedCommitRollsBack(t *testing.T) {
	const K = 6
	pl, payoffs := tightPlatform(t, K, 2)
	srv := NewServer(NewPool(1))
	h := srv.Handler()
	req, err := json.Marshal(&CreateSessionRequest{
		Platform: platformJSON(t, pl), Objective: "sum", Heuristic: "bnb", Payoffs: payoffs, MaxNodes: 3,
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
	gateway := pl.Clusters[0].Gateway
	if math.Abs(gateway-270.34) > 0.005 {
		t.Fatalf("gateway 0 is %g, not the 270.34 this case was found on", gateway)
	}
	whatIfs := []string{
		`{"gateways":[{"cluster":1,"value":90}],"relax":true}`,
		`{"speeds":[{"cluster":2,"value":40}],"relax":true}`,
	}
	// asked answers each what-if afresh: its answer is dropped from the
	// table first.
	asked := func() [][]byte {
		var out [][]byte
		for _, q := range whatIfs {
			s.answers.flush()
			out = append(out, okBody(t, h, base+"/whatif", q))
		}
		return out
	}
	before := asked()
	query := okBody(t, h, base+"/query", "")
	published := s.state.Load()
	basis, answer := published.basis, published.answer

	halve := fmt.Sprintf(`{"gatewayFactor":[0.5%s]}`, strings.Repeat(",0.5", K-1))
	for try := 1; try <= 2; try++ {
		r := httptest.NewRequest("POST", base+"/epoch", strings.NewReader(halve))
		r.Header.Set(commitIDHeader, "c1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("commit try %d: status %d, want the node budget's 422: %s", try, rec.Code, rec.Body)
		}
		c := s.state.Load()
		if c != published {
			t.Fatalf("after failed try %d: a new committed state was published", try)
		}
		g, epoch, b, a, recs := c.pr.Platform.Clusters[0].Gateway, c.epoch, c.basis, c.answer, len(c.records)
		if g != gateway || epoch != 0 || s.answers.epoch != 0 || b != basis || a != answer || recs != 0 {
			t.Fatalf("after failed try %d: gateway 0 %g (want %g), epoch %d and table epoch %d (want 0), basis kept %v, answer kept %v, %d records",
				try, g, gateway, epoch, s.answers.epoch, b == basis, a == answer, recs)
		}
	}
	if got := okBody(t, h, base+"/query", ""); !bytes.Equal(got, query) {
		t.Fatalf("the query after the failed commits differs:\n%s\nvs\n%s", got, query)
	}
	for i, got := range asked() {
		if !bytes.Equal(got, before[i]) {
			t.Fatalf("what-if %s after the failed commits differs:\n%s\nvs\n%s", whatIfs[i], got, before[i])
		}
	}
	if raised := okBody(t, h, base+"/epoch", fmt.Sprintf(`{"gatewayFactor":[1.5%s]}`, strings.Repeat(",1", K-1))); !bytes.Contains(raised, []byte("\n  \"epoch\": 1\n")) {
		t.Fatalf("the commit after the failed ones is not epoch 1:\n%s", raised)
	}
}

// TestHeuristicWhatIfSolvesOnce: a heuristic what-if reports the bound
// of the unpinned relaxation its heuristic solved first, so on an lprg
// session it runs one warm solve — the relaxation LPRG rounds — and no
// second one to read the bound. That bound is the hypothetical's
// relaxed optimum: a relaxed what-if of the same hypothetical agrees
// with it to 1e-9.
func TestHeuristicWhatIfSolvesOnce(t *testing.T) {
	const K = 8
	pl, payoffs := tightPlatform(t, K, 11)
	s, _, err := NewPool(1).GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, pl), Payoffs: payoffs})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []WhatIfRequest{
		{Speeds: []ClusterValue{{Cluster: 0, Value: pl.Clusters[0].Speed * 0.5}}},
		{Gateways: []ClusterValue{{Cluster: 1, Value: pl.Clusters[1].Gateway * 0.7}}},
		{Links: []LinkValue{{Link: 0, MaxConnect: 1}}, Speeds: []ClusterValue{{Cluster: 2, Value: pl.Clusters[2].Speed * 1.3}}},
	} {
		before := s.Stats().Solver.WarmSolves
		rep, err := s.WhatIf(&h)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Solver.WarmSolves - before; got != 1 || rep.Relaxed || rep.Cached {
			t.Fatalf("what-if %d: a heuristic what-if ran %d warm solves (relaxed %v, cached %v), want 1", i, got, rep.Relaxed, rep.Cached)
		}
		h.Relax = true
		relaxed, err := s.WhatIf(&h)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(rep.LPBound - relaxed.LPBound); d > 1e-9*math.Max(1, math.Abs(relaxed.LPBound)) {
			t.Fatalf("what-if %d: the heuristic what-if's bound %v is not the relaxed optimum %v", i, rep.LPBound, relaxed.LPBound)
		}
	}
}

// TestCommittedImageBuiltFromBody: a commit answered over HTTP, tagged
// or not, publishes its committed answer with the wire image already
// built from the commit's body — EncodeReport's bytes for the report
// with Cached set, which the next query answers with — on lprg, lprr
// and bnb sessions. A library commit encodes no body, and its image is
// built on the first query.
func TestCommittedImageBuiltFromBody(t *testing.T) {
	const K = 6
	pl, payoffs := tightPlatform(t, K, 11)
	for _, heur := range []string{"lprg", "lprr", "bnb"} {
		t.Run(heur, func(t *testing.T) {
			srv := NewServer(NewPool(1))
			h := srv.Handler()
			s, _, err := srv.Pool().GetOrCreate(&CreateSessionRequest{
				Platform: platformJSON(t, pl), Objective: "sum", Heuristic: heur, Payoffs: payoffs, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := "/sessions/" + s.id
			for _, id := range []string{"", "c1"} {
				body := fmt.Sprintf(`{"gatewayFactor":[%s0.9]}`, strings.Repeat("0.9,", K-1))
				req := httptest.NewRequest("POST", base+"/epoch", strings.NewReader(body))
				if id != "" {
					req.Header.Set(commitIDHeader, id)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("commit %q: status %d: %s", id, rec.Code, rec.Body)
				}
				a := s.state.Load().answer
				if a.image == nil {
					t.Fatalf("commit %q: the committed answer was published with no wire image", id)
				}
				if want := mustEncode(t, a.report()); !bytes.Equal(a.image, want) {
					t.Fatalf("commit %q: the built image is not EncodeReport's bytes for the cached report\n got %s\nwant %s", id, a.image, want)
				}
				if got := okBody(t, h, base+"/query", ""); !bytes.Equal(got, a.image) {
					t.Fatalf("commit %q: the query answered\n%s\nnot the built image", id, got)
				}
			}
			if _, err := s.EpochIdempotent(&EpochRequest{GatewayFactor: driftFactors(K, 1.1)}, ""); err != nil {
				t.Fatal(err)
			}
			if a := s.state.Load().answer; a.image != nil {
				t.Fatal("a library commit published a wire image it had no body for")
			}
		})
	}
}

// TestCommittedAnswerIsTheEmptyWhatIf: a commit reports the answer the
// what-if that changes nothing ({}) reports at the same epoch — its
// heuristic runs from the same root and reports that root's bound. For
// every session heuristic under each objective, on tight K = 5 and K = 8
// platforms (seeds 1–9) with 1 + i mod 3 payoffs, at the create and after
// each of 3 epoch commits, the query's value and the empty what-if's
// agree within 1e-9 · bound, and their bounds within 1e-12 relative. The
// bounds are not held equal: the commit's root solve and the what-if's
// solve on the frozen, refactorized state may differ in the last bits.
func TestCommittedAnswerIsTheEmptyWhatIf(t *testing.T) {
	for _, heur := range []string{"lprg", "lprr", "lprr-eq", "bnb"} {
		for _, obj := range []string{"sum", "maxmin"} {
			for _, K := range []int{5, 8} {
				for seed := int64(1); seed <= 9; seed++ {
					pl, payoffs := tightPlatform(t, K, seed)
					cfg, err := parseConfig(&CreateSessionRequest{Objective: obj, Heuristic: heur, Payoffs: payoffs, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					s, err := newSession(pl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed))
					for e := 0; ; e++ {
						q, err := s.Query()
						if err != nil {
							t.Fatal(err)
						}
						w, err := s.WhatIf(&WhatIfRequest{})
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(q.Value-w.Value) > 1e-9*q.LPBound || math.Abs(q.LPBound-w.LPBound) > 1e-12*q.LPBound {
							t.Errorf("%s %s K=%d seed %d epoch %d: committed value %.17g bound %.17g, empty what-if %.17g bound %.17g",
								heur, obj, K, seed, e, q.Value, q.LPBound, w.Value, w.LPBound)
						}
						if e == 3 {
							break
						}
						f, g := make([]float64, K), make([]float64, K)
						for i := range f {
							f[i], g[i] = 0.9+0.2*rng.Float64(), 0.9+0.2*rng.Float64()
						}
						if _, err := s.Epoch(&EpochRequest{SpeedFactor: f, GatewayFactor: g}); err != nil {
							t.Fatalf("%s %s K=%d seed %d epoch %d: %v", heur, obj, K, seed, e, err)
						}
					}
				}
			}
		}
	}
}
