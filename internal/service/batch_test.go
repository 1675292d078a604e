package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platform"
)

// batchMutations builds a deterministic mixed query set: speed,
// gateway and link mutations plus occasional β boxes, cycling over
// clusters so later queries revisit the same targets as earlier ones
// with different values.
func batchMutations(pl *platform.Platform, routes []core.Pair, n int) []WhatIfRequest {
	K := pl.K()
	links := len(pl.Links)
	qs := make([]WhatIfRequest, n)
	for i := range qs {
		k := i % K
		switch i % 4 {
		case 0:
			qs[i] = WhatIfRequest{Speeds: []ClusterValue{{Cluster: k, Value: 50 + float64(7*i%200)}}, Relax: true}
		case 1:
			qs[i] = WhatIfRequest{Gateways: []ClusterValue{{Cluster: k, Value: 40 + float64(11*i%150)}}, Relax: true}
		case 2:
			if links > 0 {
				qs[i] = WhatIfRequest{Links: []LinkValue{{Link: i % links, MaxConnect: float64(1 + i%9)}}, Relax: true}
			} else {
				qs[i] = WhatIfRequest{Speeds: []ClusterValue{{Cluster: k, Value: 60 + float64(i)}}, Relax: true}
			}
		default:
			if len(routes) > 0 {
				p := routes[i%len(routes)]
				qs[i] = WhatIfRequest{Bounds: []RouteBounds{{From: p.K, To: p.L, Lb: 0, Ub: float64(1 + i%3)}}}
			} else {
				qs[i] = WhatIfRequest{Gateways: []ClusterValue{{Cluster: k, Value: 70 + float64(i)}}, Relax: true}
			}
		}
	}
	return qs
}

// TestBatchWhatIfMatchesSerial pins the batched engine to the serial
// endpoint: every batch report must equal the one-query what-if
// answer for the same mutation at 1e-9, over HTTP.
func TestBatchWhatIfMatchesSerial(t *testing.T) {
	pl := testPlatform(t, 10, 7)
	ts, pool := newTestServer(t, 2)
	resp := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, pl)}, http.StatusCreated)
	sess := pool.Get(resp.ID)
	if sess == nil {
		t.Fatal("session not pooled")
	}
	queries := batchMutations(pl, sess.model.BetaVars(), 24)

	// Serial references through the one-query endpoint (Relax on, as
	// the batch implies).
	want := make([]*SolveReport, len(queries))
	for i := range queries {
		q := queries[i]
		q.Relax = true
		rep := &SolveReport{}
		doJSON(t, ts.Client(), "POST", ts.URL+"/sessions/"+resp.ID+"/whatif", &q, rep, http.StatusOK)
		want[i] = rep
	}

	var batch BatchWhatIfResponse
	doJSON(t, ts.Client(), "POST", ts.URL+"/sessions/"+resp.ID+"/whatif/batch",
		&BatchWhatIfRequest{Queries: queries}, &batch, http.StatusOK)
	if len(batch.Reports) != len(queries) {
		t.Fatalf("%d reports for %d queries", len(batch.Reports), len(queries))
	}
	if batch.Workers != defaultBatchWorkers {
		t.Fatalf("workers %d, want default %d", batch.Workers, defaultBatchWorkers)
	}
	for i, rep := range batch.Reports {
		if rep.Feasible != want[i].Feasible {
			t.Fatalf("query %d: batch feasible=%v, serial %v", i, rep.Feasible, want[i].Feasible)
		}
		if !rep.Relaxed {
			t.Fatalf("query %d: batch answer not marked relaxed", i)
		}
		if rep.Feasible && math.Abs(rep.LPBound-want[i].LPBound) > tol*(1+math.Abs(want[i].LPBound)) {
			t.Fatalf("query %d: batch bound %.12g, serial %.12g", i, rep.LPBound, want[i].LPBound)
		}
		if rep.Alpha != nil || rep.BetaFrac != nil {
			t.Fatalf("query %d: batch report not lean: %+v", i, rep)
		}
	}
}

// TestBatchWhatIfDedupe pins the intra-batch single-flight: a batch
// with repeated queries solves each distinct mutation exactly once
// (measured by the session's solve counters), duplicates share the
// answer with Coalesced set.
func TestBatchWhatIfDedupe(t *testing.T) {
	pl := testPlatform(t, 8, 11)
	sess, err := newSession(pl, sessionConfig{obj: core.MAXMIN, objName: "maxmin", heur: "lprg", name: heuristics.NameLPRG})
	if err != nil {
		t.Fatal(err)
	}

	const distinct = 4
	const repeat = 3
	var queries []WhatIfRequest
	for r := 0; r < repeat; r++ {
		for d := 0; d < distinct; d++ {
			queries = append(queries, WhatIfRequest{
				Speeds: []ClusterValue{{Cluster: d, Value: 90 + 10*float64(d)}},
				// Half the duplicates spell Relax out, half leave it
				// implied — the dedupe key normalizes it away.
				Relax: r%2 == 0,
			})
		}
	}

	before := sess.Stats().Solver
	whatIfsBefore, coalescedBefore := sess.whatIfs.Load(), sess.coalesced.Load()
	resp, err := sess.WhatIfBatch(&BatchWhatIfRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	after := sess.Stats().Solver

	if resp.Distinct != distinct {
		t.Fatalf("distinct %d, want %d", resp.Distinct, distinct)
	}
	solves := (after.WarmSolves + after.ColdSolves) - (before.WarmSolves + before.ColdSolves)
	if solves != distinct {
		t.Fatalf("batch performed %d solves for %d distinct mutations", solves, distinct)
	}
	if got := sess.whatIfs.Load() - whatIfsBefore; got != uint64(distinct) {
		t.Fatalf("whatIfs counter advanced %d, want %d", got, distinct)
	}
	if got := sess.coalesced.Load() - coalescedBefore; got != uint64(len(queries)-distinct) {
		t.Fatalf("coalesced counter advanced %d, want %d", got, len(queries)-distinct)
	}
	seen := make(map[int]bool)
	for i, rep := range resp.Reports {
		d := i % distinct
		if seen[d] != rep.Coalesced {
			t.Fatalf("report %d: coalesced=%v, want %v", i, rep.Coalesced, seen[d])
		}
		seen[d] = true
		first := resp.Reports[d]
		if rep.Feasible != first.Feasible || rep.Value != first.Value || rep.LPBound != first.LPBound {
			t.Fatalf("report %d differs from its twin %d", i, d)
		}
	}

	// Fork accounting: one fork per worker of a pool capped at the
	// distinct count.
	if after.Forks-before.Forks != resp.Workers {
		t.Fatalf("forks advanced %d, want %d", after.Forks-before.Forks, resp.Workers)
	}

	// A second batch of the same width borrows the first one's forks: no
	// fork is allocated, and each solve is folded into the session once.
	again, err := sess.WhatIfBatch(&BatchWhatIfRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	second := sess.Stats().Solver
	if d := second.Forks - after.Forks; d != 0 || again.Workers != resp.Workers {
		t.Fatalf("second batch of width %d forked %d contexts, want 0 (pool of %d)", again.Workers, d, resp.Workers)
	}
	if d := (second.WarmSolves + second.ColdSolves) - (after.WarmSolves + after.ColdSolves); d != distinct {
		t.Fatalf("second batch counted %d solves for %d distinct mutations", d, distinct)
	}
	for i, rep := range again.Reports {
		if first := resp.Reports[i]; rep.Feasible != first.Feasible || rep.Coalesced != first.Coalesced ||
			math.Float64bits(rep.LPBound) != math.Float64bits(first.LPBound) {
			t.Fatalf("report %d: pooled %+v, first batch %+v", i, rep, first)
		}
	}
}

// TestBatchWhatIfForkRace is the stress gate: 64 concurrent forks on
// one K=20 session, mixing overlapping and disjoint mutations. Run
// under -race this exercises the shared factorization; every fork's
// bound must equal its serial what-if answer at 1e-9, and the parent
// session must answer bit-identically afterwards.
func TestBatchWhatIfForkRace(t *testing.T) {
	pl := testPlatform(t, 20, 15)
	sess, err := newSession(pl, sessionConfig{obj: core.MAXMIN, objName: "maxmin", heur: "lprg", name: heuristics.NameLPRG})
	if err != nil {
		t.Fatal(err)
	}
	queries := batchMutations(pl, sess.model.BetaVars(), 64)
	// Make the tail overlap the head: same targets, different values.
	for i := 48; i < 64; i++ {
		q := queries[i-48]
		q.Speeds = append([]ClusterValue(nil), q.Speeds...)
		q.Gateways = append([]ClusterValue(nil), q.Gateways...)
		for j := range q.Speeds {
			q.Speeds[j].Value += 5
		}
		for j := range q.Gateways {
			q.Gateways[j].Value += 5
		}
		queries[i] = q
	}

	want := make([]*SolveReport, len(queries))
	for i := range queries {
		q := queries[i]
		q.Relax = true
		if want[i], err = sess.WhatIf(&q); err != nil {
			t.Fatalf("serial what-if %d: %v", i, err)
		}
	}

	// The serial what-ifs above may legitimately move the parent's
	// warm basis between optimal vertices; the batch must not move it
	// at all. Bracket only the batch.
	baseBefore, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := sess.WhatIfBatch(&BatchWhatIfRequest{Queries: queries, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Workers != resp.Distinct && resp.Workers != 64 {
		t.Fatalf("workers %d, want min(64, distinct %d)", resp.Workers, resp.Distinct)
	}
	for i, rep := range resp.Reports {
		if rep.Feasible != want[i].Feasible {
			t.Fatalf("query %d: batch feasible=%v, serial %v", i, rep.Feasible, want[i].Feasible)
		}
		if rep.Feasible && math.Abs(rep.LPBound-want[i].LPBound) > tol*(1+math.Abs(want[i].LPBound)) {
			t.Fatalf("query %d: batch bound %.12g, serial %.12g", i, rep.LPBound, want[i].LPBound)
		}
	}

	baseAfter, err := sess.Query()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(baseAfter.Value) != math.Float64bits(baseBefore.Value) ||
		math.Float64bits(baseAfter.LPBound) != math.Float64bits(baseBefore.LPBound) {
		t.Fatalf("parent disturbed by batch: value %x→%x bound %x→%x",
			math.Float64bits(baseBefore.Value), math.Float64bits(baseAfter.Value),
			math.Float64bits(baseBefore.LPBound), math.Float64bits(baseAfter.LPBound))
	}

	// Two default-width batches share the session's fork pool while an
	// epoch commit races them: each is pinned to the epoch it started on
	// and answers what the serial path does there, and the pool keeps at
	// most defaultBatchWorkers forks.
	answers := map[int][]*SolveReport{0: want}
	var wg sync.WaitGroup
	resps := make([]*BatchWhatIfResponse, 2)
	errs := make([]error, 3)
	for b := range resps {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			resps[b], errs[b] = sess.WhatIfBatch(&BatchWhatIfRequest{Queries: queries})
		}(b)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[2] = sess.Epoch(&EpochRequest{SpeedFactor: driftFactors(pl.K(), 0.9)})
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	answers[1] = make([]*SolveReport, len(queries))
	for i := range queries {
		q := queries[i]
		q.Relax = true
		if answers[1][i], err = sess.WhatIf(&q); err != nil {
			t.Fatalf("serial what-if %d after the commit: %v", i, err)
		}
	}
	for b, resp := range resps {
		for i, rep := range resp.Reports {
			w := answers[resp.Epoch][i]
			if rep.Feasible != w.Feasible || rep.Feasible && math.Abs(rep.LPBound-w.LPBound) > tol*(1+math.Abs(w.LPBound)) {
				t.Fatalf("racing batch %d (epoch %d) query %d: feasible=%v bound %.12g, serial %v %.12g",
					b, resp.Epoch, i, rep.Feasible, rep.LPBound, w.Feasible, w.LPBound)
			}
		}
	}
	sess.mu.Lock()
	idle := len(sess.idleForks)
	sess.mu.Unlock()
	if idle > defaultBatchWorkers {
		t.Fatalf("the pool kept %d idle forks, at most %d", idle, defaultBatchWorkers)
	}
}

// TestBatchWhatIfDeterministic pins the byte-diffability contract:
// two identical batch requests produce byte-identical response
// bodies over HTTP — the second on the first one's pooled forks — and
// after an epoch commit, a batch on forks pooled before it (reforked onto
// the new state) and the one after that are byte for byte a fresh
// session's at that state, whose forks are all new.
func TestBatchWhatIfDeterministic(t *testing.T) {
	pl := testPlatform(t, 9, 21)
	ts, pool := newTestServer(t, 2)
	resp := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, pl)}, http.StatusCreated)
	sess := pool.Get(resp.ID)
	queries := batchMutations(pl, sess.model.BetaVars(), 17)
	req := &BatchWhatIfRequest{Queries: queries}
	batch := func(ts *httptest.Server, id, label string) string {
		t.Helper()
		status, raw, err := doJSONRaw(ts.Client(), "POST", ts.URL+"/sessions/"+id+"/whatif/batch", req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("%s: status %d err %v", label, status, err)
		}
		return string(raw)
	}
	epoch := &EpochRequest{SpeedFactor: driftFactors(pl.K(), 0.9), GatewayFactor: driftFactors(pl.K(), 1.1)}

	raw1 := batch(ts, resp.ID, "first batch")
	if raw2 := batch(ts, resp.ID, "second batch"); raw1 != raw2 {
		t.Fatalf("batch responses differ between identical requests:\n%s\n---\n%s", raw1, raw2)
	}
	doJSON(t, ts.Client(), "POST", ts.URL+"/sessions/"+resp.ID+"/epoch", epoch, &SolveReport{}, http.StatusOK)
	stale := batch(ts, resp.ID, "batch after the commit")
	again := batch(ts, resp.ID, "second batch after the commit")

	freshTS, _ := newTestServer(t, 2)
	fresh := createSession(t, freshTS, &CreateSessionRequest{Platform: platformJSON(t, pl)}, http.StatusCreated)
	doJSON(t, freshTS.Client(), "POST", freshTS.URL+"/sessions/"+fresh.ID+"/epoch", epoch, &SolveReport{}, http.StatusOK)
	want := batch(freshTS, fresh.ID, "fresh session's batch")
	if stale == raw1 {
		t.Fatal("the commit moved no answer: the pooled batch after it shows nothing")
	}
	for label, got := range map[string]string{"reforked": stale, "kept": again} {
		if got != want {
			t.Fatalf("%s forks' batch differs from a fresh session's at the same state:\n%s\n---\n%s", label, got, want)
		}
	}
}

// TestBatchWhatIfErrors pins the all-or-nothing contract and the
// client-error classification.
func TestBatchWhatIfErrors(t *testing.T) {
	pl := testPlatform(t, 6, 31)
	ts, pool := newTestServer(t, 2)
	resp := createSession(t, ts, &CreateSessionRequest{Platform: platformJSON(t, pl)}, http.StatusCreated)
	sess := pool.Get(resp.ID)
	url := ts.URL + "/sessions/" + resp.ID + "/whatif/batch"

	// One answered batch fills the session's fork pool; a refused batch
	// leaves it as it found it.
	doJSON(t, ts.Client(), "POST", url, &BatchWhatIfRequest{Queries: batchMutations(pl, sess.model.BetaVars(), 8)},
		&BatchWhatIfResponse{}, http.StatusOK)
	sess.mu.Lock()
	pooled := slices.Clone(sess.idleForks)
	sess.mu.Unlock()
	if len(pooled) != defaultBatchWorkers {
		t.Fatalf("a default-width batch left %d idle forks, want %d", len(pooled), defaultBatchWorkers)
	}
	before := sess.Stats().Solver
	// A refused batch answered nothing, so it counts nothing.
	counted := sess.Stats()
	uncounted := func(row string) {
		t.Helper()
		if st := sess.Stats(); st.WhatIfs != counted.WhatIfs || st.CoalescedWhatIfs != counted.CoalescedWhatIfs {
			t.Fatalf("%s: a refused batch moved whatIfs %d -> %d, coalescedWhatIfs %d -> %d",
				row, counted.WhatIfs, st.WhatIfs, counted.CoalescedWhatIfs, st.CoalescedWhatIfs)
		}
		sess.mu.Lock()
		idle := slices.Clone(sess.idleForks)
		sess.mu.Unlock()
		if !slices.Equal(idle, pooled) {
			t.Fatalf("%s: a refused batch changed the fork pool", row)
		}
	}

	// Empty batch.
	status, _, err := doJSONRaw(ts.Client(), "POST", url, &BatchWhatIfRequest{})
	if err != nil || status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d err %v, want 400", status, err)
	}
	uncounted("empty batch")

	// One bad query fails the whole batch before anything solves (the
	// third repeats the first: a coalesced pair the batch never answers).
	queries := []WhatIfRequest{
		{Speeds: []ClusterValue{{Cluster: 0, Value: 100}}},
		{Speeds: []ClusterValue{{Cluster: 99, Value: 100}}},
		{Speeds: []ClusterValue{{Cluster: 0, Value: 100}}},
	}
	status, raw, err := doJSONRaw(ts.Client(), "POST", url, &BatchWhatIfRequest{Queries: queries})
	if err != nil || status != http.StatusBadRequest {
		t.Fatalf("bad cluster: status %d err %v, want 400; body %s", status, err, raw)
	}
	uncounted("bad cluster")
	var errResp ErrorResponse
	if jsonErr := json.Unmarshal(raw, &errResp); jsonErr != nil || errResp.Error == "" {
		t.Fatalf("bad cluster: undecodable error body %s", raw)
	}
	if want := "batch query 1"; !strings.Contains(errResp.Error, want) {
		t.Fatalf("error %q does not name the offending query (%q)", errResp.Error, want)
	}

	// So does a bad β box in a later query — a negative lower bound, or
	// a route with no β variable — which used to surface only once the
	// queries before it had been solved.
	route := sess.model.BetaVars()[0]
	for name, bad := range map[string]RouteBounds{
		"negative lb":   {From: route.K, To: route.L, Lb: -1, Ub: 2},
		"no β variable": {From: 0, To: 0, Lb: 0, Ub: 1},
	} {
		queries[1] = WhatIfRequest{Bounds: []RouteBounds{{From: route.K, To: route.L, Lb: 0, Ub: 1}, bad}}
		status, raw, err = doJSONRaw(ts.Client(), "POST", url, &BatchWhatIfRequest{Queries: queries})
		if err != nil || status != http.StatusBadRequest || !strings.Contains(string(raw), "batch query 1") {
			t.Fatalf("%s: status %d err %v body %s, want 400 naming batch query 1", name, status, err, raw)
		}
		uncounted(name)
	}

	// `workers` is outside input: past maxBatchWorkers the batch is
	// refused before anything is forked, however many queries it holds.
	queries = batchMutations(pl, sess.model.BetaVars(), maxBatchWorkers+6)
	status, raw, err = doJSONRaw(ts.Client(), "POST", url, &BatchWhatIfRequest{Queries: queries, Workers: maxBatchWorkers + 1})
	if err != nil || status != http.StatusBadRequest || !strings.Contains(string(raw), "workers 65 out of range") {
		t.Fatalf("workers %d: status %d err %v body %s, want 400 naming the range", maxBatchWorkers+1, status, err, raw)
	}
	uncounted("workers")

	after := sess.Stats().Solver
	if d := (after.WarmSolves + after.ColdSolves) - (before.WarmSolves + before.ColdSolves); d != 0 {
		t.Fatalf("failed batches performed %d solves, want 0", d)
	}
	if after.Forks != before.Forks {
		t.Fatalf("failed batches forked %d contexts, want 0", after.Forks-before.Forks)
	}

	// At the ceiling and below it the pool is what it always was: the
	// request's width, or the default for 0, capped by the distinct
	// queries.
	for _, tc := range []struct{ asked, queries, want int }{
		{maxBatchWorkers, len(queries), maxBatchWorkers},
		{maxBatchWorkers, 10, 10},
		{0, len(queries), defaultBatchWorkers},
	} {
		var resp BatchWhatIfResponse
		doJSON(t, ts.Client(), "POST", url, &BatchWhatIfRequest{Queries: queries[:tc.queries], Workers: tc.asked}, &resp, http.StatusOK)
		if resp.Distinct < tc.want || resp.Workers != tc.want {
			t.Fatalf("workers %d over %d queries: distinct %d workers %d, want workers %d", tc.asked, tc.queries, resp.Distinct, resp.Workers, tc.want)
		}
	}
}

// TestE15BatchRegression is the throughput regression guard behind
// the batched what-if engine: on a K=20 network-bound session, 256
// queries (64 distinct mutations, 4 copies each) answered as one batch
// must beat the same queries serialized through the single what-if
// path. The guard holds a conservative 2.0x floor — the architectural
// savings (one decode, intra-batch dedupe, no per-query extraction)
// that survive any machine; the ratio itself is tracked by bench/'s
// batch_fork against whatif_solve — plus the scale-independent
// soundness gates: no fork solves cold, and every batched answer carries
// its serial warm what-if's verdict and, within 1e-9 relative, its bound.
// Timing is skipped under
// the race detector, whose
// instrumentation voids wall-clock comparisons; the soundness gates
// still run.
func TestE15BatchRegression(t *testing.T) {
	const floor, distinct, copies = 2.0, 64, 4
	pl, payoffs := tightPlatform(t, 20, 1)
	sess, err := newSession(pl, sessionConfig{obj: core.MAXMIN, objName: "maxmin", heur: "lprg", name: heuristics.NameLPRG, payoffs: payoffs})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity cuts, integral link budgets and lb=0 β boxes are never
	// infeasible, so the warm path never legitimately falls back cold.
	mutations := batchMutations(pl, sess.model.BetaVars(), distinct)
	queries := make([]WhatIfRequest, 0, distinct*copies)
	for c := 0; c < copies; c++ {
		queries = append(queries, mutations...)
	}

	// Serialized path: every query through the session mutex, one warm
	// solve each. The answer table is flushed per query so duplicates
	// measure the solve path, not cache hits: the guard compares the
	// two solving engines, and the cache would otherwise answer 3/4 of
	// the serialized set for free.
	serial := make([]*SolveReport, len(queries))
	start := time.Now()
	for i := range queries {
		q := queries[i]
		q.Relax = true
		sess.answers.flush()
		if serial[i], err = sess.WhatIf(&q); err != nil {
			t.Fatalf("serial what-if %d: %v", i, err)
		}
	}
	serialSecs := time.Since(start).Seconds()

	before := sess.Stats().Solver
	start = time.Now()
	resp, err := sess.WhatIfBatch(&BatchWhatIfRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	batchSecs := time.Since(start).Seconds()

	if resp.Distinct != distinct {
		t.Fatalf("workload has %d distinct mutations, want %d", resp.Distinct, distinct)
	}
	if cold := sess.Stats().Solver.ColdSolves - before.ColdSolves; cold != 0 {
		t.Fatalf("batch phase solved cold %d times — forks lost the shared factorization", cold)
	}
	for i, rep := range resp.Reports {
		if rep.Feasible != serial[i].Feasible {
			t.Fatalf("query %d: batch feasible=%v, serial %v", i, rep.Feasible, serial[i].Feasible)
		}
		if rep.Feasible && math.Abs(rep.LPBound-serial[i].LPBound) > tol*(1+math.Abs(serial[i].LPBound)) {
			t.Fatalf("query %d: batch bound %.12g, serial %.12g", i, rep.LPBound, serial[i].LPBound)
		}
	}

	speedup := serialSecs / batchSecs
	if raceEnabled {
		t.Skipf("race detector active; skipping throughput floor (measured %.1fx)", speedup)
	}
	t.Logf("batch %.0f QPS, serial %.0f QPS: %.1fx", float64(len(queries))/batchSecs, float64(len(queries))/serialSecs, speedup)
	if speedup < floor {
		t.Fatalf("batch throughput %.2fx the serialized path, floor %.1fx", speedup, floor)
	}
}
