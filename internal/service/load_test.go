package service

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// TestLoadConcurrentMixedTraffic is the end-to-end serving test: one
// K=20 session, hundreds of concurrent mixed query/what-if requests
// through the HTTP API. Assertions:
//
//   - every answer is pinned to the batch solvers at 1e-9 on the
//     value-unique quantity (the relaxation bound; committed query
//     values are additionally pinned to the creation answer, which
//     the warm re-solves must reproduce exactly);
//   - after warm-up (the session-creation cold solve) every solve is
//     a warm restart: /stats reports warm ≫ cold, cold == 1, and
//     zero cold fallbacks.
//
// Run under -race this also exercises the session mutex and the
// what-if single-flight against real HTTP concurrency.
func TestLoadConcurrentMixedTraffic(t *testing.T) {
	pl := testPlatform(t, 20, 42)
	ts, _ := newTestServer(t, 4)
	resp := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, pl)}, http.StatusCreated)
	baseValue := resp.Report.Value
	baseBound := resp.Report.LPBound

	// A fixed menu of what-if hypotheticals with their batch-computed
	// relaxation bounds (cold, a fresh model each).
	type variant struct {
		req   WhatIfRequest
		bound float64
	}
	rng := rand.New(rand.NewSource(7))
	variants := make([]variant, 0, 8)
	for i := 0; i < 8; i++ {
		mut := pl.Clone()
		var req WhatIfRequest
		k := rng.Intn(pl.K())
		g := mut.Clusters[k].Gateway * (0.7 + 0.3*rng.Float64())
		mut.Clusters[k].Gateway = g
		req.Gateways = append(req.Gateways, ClusterValue{Cluster: k, Value: g})
		if i%2 == 0 {
			l := rng.Intn(pl.K())
			s := mut.Clusters[l].Speed * (0.7 + 0.3*rng.Float64())
			mut.Clusters[l].Speed = s
			req.Speeds = append(req.Speeds, ClusterValue{Cluster: l, Value: s})
		}
		if i%3 == 0 && len(pl.Links) > 0 {
			li := rng.Intn(len(pl.Links))
			mc := float64(mut.Links[li].MaxConnect - 1)
			if mc < 0 {
				mc = 0
			}
			mut.Links[li].MaxConnect = int(mc)
			req.Links = append(req.Links, LinkValue{Link: li, MaxConnect: mc})
		}
		variants = append(variants, variant{req: req, bound: batchBound(t, mut, core.MAXMIN)})
	}

	const total = 240 // concurrent requests, ~half queries half what-ifs
	errs := make([]error, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				var rep SolveReport
				if i%2 == 0 {
					if err := doJSONE(ts.Client(), "POST", ts.URL+"/sessions/"+resp.ID+"/query", nil, &rep); err != nil {
						return err
					}
					if math.Abs(rep.Value-baseValue) > tol*(1+math.Abs(baseValue)) {
						return fmt.Errorf("query value %g, want committed %g", rep.Value, baseValue)
					}
					if math.Abs(rep.LPBound-baseBound) > tol*(1+math.Abs(baseBound)) {
						return fmt.Errorf("query bound %g, want %g", rep.LPBound, baseBound)
					}
					return nil
				}
				v := variants[(i/2)%len(variants)]
				if err := doJSONE(ts.Client(), "POST", ts.URL+"/sessions/"+resp.ID+"/whatif", v.req, &rep); err != nil {
					return err
				}
				if !rep.Feasible {
					return fmt.Errorf("what-if infeasible")
				}
				if math.Abs(rep.LPBound-v.bound) > tol*(1+math.Abs(v.bound)) {
					return fmt.Errorf("what-if bound %g, batch bound %g", rep.LPBound, v.bound)
				}
				if rep.Value <= 0 || rep.Value > rep.LPBound+tol*(1+math.Abs(rep.LPBound)) {
					return fmt.Errorf("what-if value %g outside (0, bound %g]", rep.Value, rep.LPBound)
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			if failed <= 5 {
				t.Errorf("request %d: %v", i, err)
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d/%d requests failed", failed, total)
	}

	// The committed state must be exactly where it started, and the
	// solver must have run warm for everything after creation.
	var q SolveReport
	doJSON(t, ts.Client(), "POST", ts.URL+"/sessions/"+resp.ID+"/query", nil, &q, http.StatusOK)
	if math.Abs(q.Value-baseValue) > tol*(1+math.Abs(baseValue)) {
		t.Fatalf("committed value drifted under load: %g, want %g", q.Value, baseValue)
	}
	var stats PoolStatsResponse
	doJSON(t, ts.Client(), "GET", ts.URL+"/stats", nil, &stats, http.StatusOK)
	if len(stats.Sessions) != 1 {
		t.Fatalf("sessions in stats = %d", len(stats.Sessions))
	}
	solver := stats.Sessions[0].Solver
	if solver.ColdSolves != 1 {
		t.Fatalf("cold solves = %d, want exactly the session-creation solve", solver.ColdSolves)
	}
	if solver.ColdFallbacks != 0 {
		t.Fatalf("cold fallbacks = %d, want 0 (every restart must stay warm)", solver.ColdFallbacks)
	}
	// Every request after creation was served without a cold solve:
	// either a warm restart, a coalesced share of one, or an
	// answer-cache hit (repeat requests against the unchanged
	// committed state are map hits, not solves).
	served := uint64(solver.WarmSolves) + stats.Sessions[0].CacheHits + stats.Sessions[0].CoalescedWhatIfs
	if served < total {
		t.Fatalf("warm+cached+coalesced = %d, want >= %d (nothing may cold-solve)", served, total)
	}
	if stats.Sessions[0].CacheHits == 0 {
		t.Fatalf("cache hits = 0 under repeat traffic (answer cache not engaging)")
	}
	queries := metricValue(t, scrape(t, ts.Client(), ts.URL+"/metrics"), `schedd_request_seconds_count{endpoint="query"}`)
	if got := uint64(queries) + stats.Sessions[0].WhatIfs + stats.Sessions[0].CoalescedWhatIfs; got < total {
		t.Fatalf("request counters %d, want >= %d", got, total)
	}
	if cs := stats.Cluster; cs.CacheHits != stats.Sessions[0].CacheHits || cs.CacheMisses != stats.Sessions[0].CacheMisses {
		t.Fatalf("pool-wide cluster cache counters %d/%d do not merge the session's %d/%d",
			cs.CacheHits, cs.CacheMisses, stats.Sessions[0].CacheHits, stats.Sessions[0].CacheMisses)
	}
}

// TestConcurrentWhatIfsAndEpochCommits is the pool-level race test:
// parallel what-ifs, epoch commits, pool lookups and stats scrapes on
// shared sessions. Afterwards the serving state must be exactly
// consistent: the session's answer on its (drifted) platform equals a
// cold batch solve of that platform at 1e-9 — which can only hold if
// every what-if rolled back exactly — and a session that saw only
// what-ifs still answers its creation value.
func TestConcurrentWhatIfsAndEpochCommits(t *testing.T) {
	plA := testPlatform(t, 8, 51)
	plB := testPlatform(t, 8, 52)
	ts, pool := newTestServer(t, 4)
	respA := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, plA)}, http.StatusCreated)
	respB := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, plB)}, http.StatusCreated)

	factors := func(n int, f float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f
		}
		return out
	}

	const perGroup = 16
	var wg sync.WaitGroup
	errc := make(chan error, 4*perGroup)
	// Group A: what-ifs on session A.
	for i := 0; i < perGroup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rep SolveReport
			req := WhatIfRequest{Gateways: []ClusterValue{{Cluster: i % plA.K(), Value: 100 + float64(i)}}}
			if err := doJSONE(ts.Client(), "POST", ts.URL+"/sessions/"+respA.ID+"/whatif", req, &rep); err != nil {
				errc <- err
			}
		}(i)
	}
	// Group B: epoch commits on session A (multiplicative speed and
	// gateway drift).
	for i := 0; i < perGroup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rep SolveReport
			req := EpochRequest{SpeedFactor: factors(plA.K(), 0.99)}
			if i%2 == 0 {
				req = EpochRequest{GatewayFactor: factors(plA.K(), 0.98)}
			}
			if err := doJSONE(ts.Client(), "POST", ts.URL+"/sessions/"+respA.ID+"/epoch", req, &rep); err != nil {
				errc <- err
			}
		}(i)
	}
	// Group C: what-ifs and queries on session B (no commits).
	for i := 0; i < perGroup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rep SolveReport
			if i%2 == 0 {
				req := WhatIfRequest{Speeds: []ClusterValue{{Cluster: i % plB.K(), Value: 80}}}
				if err := doJSONE(ts.Client(), "POST", ts.URL+"/sessions/"+respB.ID+"/whatif", req, &rep); err != nil {
					errc <- err
				}
				return
			}
			if err := doJSONE(ts.Client(), "POST", ts.URL+"/sessions/"+respB.ID+"/query", nil, &rep); err != nil {
				errc <- err
			}
		}(i)
	}
	// Group D: pool traffic — re-creates (hits) and stats scrapes.
	for i := 0; i < perGroup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				var cr CreateSessionResponse
				if err := doJSONE(ts.Client(), "POST", ts.URL+"/sessions", &CreateSessionRequest{Platform: platformJSON(t, plA)}, &cr); err != nil {
					errc <- err
				}
				return
			}
			var st PoolStatsResponse
			if err := doJSONE(ts.Client(), "GET", ts.URL+"/stats", nil, &st); err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Session A: fetch the drifted platform it now serves and pin its
	// warm answer to a cold batch solve of exactly that platform.
	sessA := pool.Get(respA.ID)
	if sessA == nil {
		t.Fatal("session A vanished")
	}
	data, err := sessA.PlatformJSON()
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := platform.Decode(data)
	if err != nil {
		t.Fatalf("served platform does not decode: %v", err)
	}
	var qA SolveReport
	doJSON(t, ts.Client(), "POST", ts.URL+"/sessions/"+respA.ID+"/query", nil, &qA, http.StatusOK)
	wantBound := batchBound(t, drifted, core.MAXMIN)
	if math.Abs(qA.LPBound-wantBound) > tol*(1+math.Abs(wantBound)) {
		t.Fatalf("post-storm warm bound %g != cold bound %g on the served platform (rollback leak?)", qA.LPBound, wantBound)
	}
	if qA.Epoch != perGroup {
		t.Fatalf("session A epoch = %d, want %d commits", qA.Epoch, perGroup)
	}

	// Session B saw only what-ifs: its committed answer is untouched.
	var qB SolveReport
	doJSON(t, ts.Client(), "POST", ts.URL+"/sessions/"+respB.ID+"/query", nil, &qB, http.StatusOK)
	if math.Abs(qB.Value-respB.Report.Value) > tol*(1+math.Abs(respB.Report.Value)) {
		t.Fatalf("session B committed value drifted: %g, want %g", qB.Value, respB.Report.Value)
	}
	if math.Abs(qB.LPBound-respB.Report.LPBound) > tol*(1+math.Abs(respB.Report.LPBound)) {
		t.Fatalf("session B committed bound drifted: %g, want %g", qB.LPBound, respB.Report.LPBound)
	}
}
