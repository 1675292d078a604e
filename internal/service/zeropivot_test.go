package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/platgen"
)

// benchStream is the benchmark harness's stream derivation (subRNG in
// bench/workloads.go): a splitmix64 finalizer over (seed, workload name,
// stream), so the mix below is the one bench/run.sh replays.
func benchStream(seed int64, workload string, stream int) *rand.Rand {
	x := uint64(seed)
	for _, c := range []byte(workload) {
		x = x*1099511628211 + uint64(c)
	}
	x += uint64(stream) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// pinnedWhatIfMix is the benchmark's whatif_solve session and op list
// at K clusters: its network-bound platform (pinned seed 2005, the
// platform stream), a maxmin / lprg session with payoffs 1, 2, 3, …, and
// n relaxed what-ifs drawn as the harness draws them — a quarter each of
// a scaled speed, a scaled gateway, a link budget with a speed, and a β
// box with a gateway.
func pinnedWhatIfMix(t testing.TB, k, n int) (*Session, []WhatIfRequest) {
	t.Helper()
	const workload, streamOps = "whatif_solve", 0
	s, pl := benchSession(t, workload, k)
	routes := remoteRoutes(pl)
	rng := benchStream(benchPinnedSeed, workload, streamOps)
	ops := make([]WhatIfRequest, n)
	for i := range ops {
		ops[i] = pinnedMutation(pl, routes, i, rng)
	}
	return s, ops
}

// remoteRoutes lists the routes that carry a β variable, as the harness
// does.
func remoteRoutes(pl *platform.Platform) [][2]int {
	var routes [][2]int
	for a := 0; a < pl.K(); a++ {
		for b := 0; b < pl.K(); b++ {
			if rt := pl.Route(a, b); a != b && rt.Exists && len(rt.Links) > 0 {
				routes = append(routes, [2]int{a, b})
			}
		}
	}
	return routes
}

// benchPinnedSeed and benchStreamPlatform are the harness's pinnedSeed
// and the stream its first session's platform is drawn from.
const benchPinnedSeed, benchStreamPlatform = 2005, 3

// benchSession is a benchmark workload's first session at K clusters:
// the network-bound platform the harness draws for it and a maxmin /
// lprg session with payoffs 1, 2, 3, 1, ….
func benchSession(t testing.TB, workload string, k int) (*Session, *platform.Platform) {
	t.Helper()
	pl, err := platgen.Generate(platgen.Params{
		K: k, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5,
	}, benchStream(benchPinnedSeed, workload, benchStreamPlatform))
	if err != nil {
		t.Fatal(err)
	}
	payoffs := make([]float64, k)
	for i := range payoffs {
		payoffs[i] = float64(1 + i%3)
	}
	s, _, err := NewPool(1).GetOrCreate(&CreateSessionRequest{
		Platform: platformJSON(t, pl), Objective: "maxmin", Heuristic: "lprg", Payoffs: payoffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, pl
}

// pinnedMutation is the harness's mutation(s, kind, randomPick(s, rng)).
func pinnedMutation(pl *platform.Platform, routes [][2]int, kind int, rng *rand.Rand) WhatIfRequest {
	cluster, scale, budget, ub := rng.Intn(pl.K()), 0.5+rng.Float64(), 1+rng.Intn(9), 1+rng.Intn(4)
	link, route := 0, 0
	if len(pl.Links) > 0 {
		link = rng.Intn(len(pl.Links))
	}
	if len(routes) > 0 {
		route = rng.Intn(len(routes))
	}
	speed := []ClusterValue{{Cluster: cluster, Value: pl.Clusters[cluster].Speed * scale}}
	gateway := []ClusterValue{{Cluster: cluster, Value: pl.Clusters[cluster].Gateway * scale}}
	q := WhatIfRequest{Relax: true}
	switch {
	case kind%4 == 2 && len(pl.Links) > 0:
		q.Links = []LinkValue{{Link: link, MaxConnect: float64(budget)}}
		q.Speeds = speed
	case kind%4 == 3 && len(routes) > 0:
		r := routes[route]
		q.Bounds = []RouteBounds{{From: r[0], To: r[1], Lb: 0, Ub: float64(ub)}}
		q.Gateways = gateway
	case kind%2 == 0:
		q.Speeds = speed
	default:
		q.Gateways = gateway
	}
	return q
}

// splicedAnswer is what askSpliced saw: whether the answer was told as a
// diff (spliced), whether its solve pivoted or flipped a bound, whether
// it refactorized or fell back cold, how many table cells the encoder
// wrote anew, how many throughputs it wrote anew, and how many α rows
// hold a moved cell.
type splicedAnswer struct {
	spliced, pivoted, rebuilt bool
	cells, throughputs, rows  int
}

// askSpliced answers q afresh and holds its body, as the server writes
// it, to the one-pass encoder's bytes for the report with its tables
// written out whole (dense), its throughputs to those tables' row sums,
// and the compact form to json.Marshal's of that dense report.
func askSpliced(t *testing.T, s *Session, q WhatIfRequest) splicedAnswer {
	t.Helper()
	s.answers.flush()
	s.mu.Lock()
	err := s.model.Freeze() // the what-if's own Freeze is then a no-op: the counts are its solve's
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Solver
	rep, _, err := s.whatIf(&q)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Solver
	bp, _ := reportBytes(rep)
	defer reportBufs.Put(bp)
	whole := rep.dense()
	if rep.diff != nil && (whole == rep || len(whole.Alpha) == 0) {
		t.Fatalf("%+v: dense left the tables told as a diff", q)
	}
	if sums := throughputs(whole.Alpha); !slices.EqualFunc(sums, rep.Throughputs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%+v: throughputs %v, the tables' row sums %v", q, rep.Throughputs, sums)
	}
	want, _ := appendReport(nil, whole, 0, false)
	if !bytes.Equal(*bp, want) {
		t.Fatalf("%+v: the spliced body differs from the one encoded whole\n got %s\nwant %s", q, *bp, want)
	}
	// The other forms write a diff's tables whole.
	if compact, err := json.Marshal(whole); err != nil || !bytes.Equal(marshalReport(rep), compact) {
		t.Fatalf("%+v: a spliced report's compact bytes differ from json.Marshal's (%v)", q, err)
	}
	_, moved := s.model.Diff()
	a := splicedAnswer{
		spliced: rep.diff != nil,
		pivoted: after.Pivots != before.Pivots || after.BoundFlips != before.BoundFlips,
		rebuilt: after.Refactorizations != before.Refactorizations || after.ColdFallbacks != before.ColdFallbacks,
	}
	if a.spliced != moved {
		t.Fatalf("%+v: spliced %v, but the model says moved %v", q, a.spliced, moved)
	}
	if a.spliced {
		a.cells = len(rep.diff.Cells)
		a.throughputs, a.rows = throughputsAnew(t, rep)
	}
	return a
}

// throughputsAnew counts the throughputs the encoder writes anew for rep,
// told as a diff, and the α rows that hold a moved cell: it encodes rep
// against a copy of the frozen body whose throughputs are masked, and
// counts the elements that come out unmasked.
func throughputsAnew(t *testing.T, rep *SolveReport) (anew, rows int) {
	t.Helper()
	body := *rep.diff.body
	body.b = bytes.Clone(body.b)
	for k := 0; k < 2*len(body.thr); k += 2 {
		for i := body.at[k]; i < body.at[k+1]; i++ {
			body.b[i] = '#'
		}
	}
	diff := *rep.diff
	diff.body = &body
	masked := *rep
	masked.diff = &diff
	out, _ := appendReport(nil, &masked, 0, false)
	key := []byte(`"throughputs": [`)
	from := bytes.Index(out, key) + len(key)
	elems := bytes.Split(out[from:from+bytes.IndexByte(out[from:], ']')], []byte{','})
	if len(elems) != len(rep.Throughputs) {
		t.Fatalf("%d throughputs written, the report holds %d", len(elems), len(rep.Throughputs))
	}
	for _, el := range elems {
		if !bytes.Contains(el, []byte{'#'}) {
			anew++
		}
	}
	K, last := int32(len(rep.diff.Base.Beta)), int32(-1)
	for _, c := range rep.diff.Cells {
		if a := c / K; a < K && a != last {
			rows, last = rows+1, a
		}
	}
	return anew, rows
}

// TestZeroPivotWhatIfCostsWhatMoved is the clock-free guard on the
// relaxed what-if's answer: it costs what the request moved, not what the
// session holds. Over the pinned mix on the benchmark's network-bound
// platform at K=10 and at K=40, every what-if whose solve did not
// refactorize or fall back cold — pivoting or not — is told as the frozen
// answer plus its moved cells, and every body the server writes, spliced
// or not, is byte for byte the one-pass encoder's for the tables written
// out whole, with only the throughputs of α rows that hold a moved cell
// encoded anew. A gateway what-if on a cluster whose gateway row has a basic
// slack (its answer keeps every cell) takes no pivot and encodes no table
// cell anew, at both sizes; core's TestBasicSlackGatewayRaiseMovesOneRow
// holds that its solve refiles one basis row and writes no X entry.
func TestZeroPivotWhatIfCostsWhatMoved(t *testing.T) {
	for _, k := range []int{10, 40} {
		s, ops := pinnedWhatIfMix(t, k, 200)
		spliced, pivoted, moved, rebuilt, rows := 0, 0, 0, 0, 0
		for _, q := range ops {
			a := askSpliced(t, s, q)
			if a.throughputs != a.rows {
				t.Fatalf("K=%d %+v: %d throughputs encoded anew, %d α rows hold a moved cell", k, q, a.throughputs, a.rows)
			}
			rows += a.rows
			if a.rebuilt {
				rebuilt++
			}
			if a.spliced == a.rebuilt {
				t.Fatalf("K=%d %+v: spliced %v after a solve that refactorized or fell back: %v", k, q, a.spliced, a.rebuilt)
			}
			if !a.spliced {
				continue
			}
			spliced++
			if a.pivoted {
				pivoted++
			}
			if a.cells > 0 {
				moved++
			}
		}
		if pivoted < 40 || spliced-pivoted < 40 || moved == 0 || rows == 0 {
			t.Fatalf("K=%d: %d of %d what-ifs spliced, %d of those pivoted, %d with moved cells: the mix lost its reach", k, spliced, len(ops), pivoted, moved)
		}
		found := false
		for c := 0; c < k && !found; c++ {
			g := s.state.Load().pr.Platform.Clusters[c].Gateway
			for _, scale := range []float64{1.25, 1.5, 2} {
				a := askSpliced(t, s, WhatIfRequest{Relax: true, Gateways: []ClusterValue{{Cluster: c, Value: g * scale}}})
				if a.spliced && !a.pivoted && a.cells == 0 {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("K=%d: no gateway what-if left every cell in place", k)
		}
		t.Logf("K=%d: %d of %d pinned what-ifs spliced (%d after pivots, %d with moved cells, %d throughputs encoded anew), %d refactorized or fell back",
			k, spliced, len(ops), pivoted, moved, rows, rebuilt)
	}
}

// TestWhatIfRejectsAsValidate: a what-if builds no platform unless a
// capacity value is one Validate refuses, and every request it rejects
// or accepts is the one the hypothetical platform — the committed one
// with the mutations applied in order — fails or passes Validate with,
// error text included: the lowest-numbered bad cluster, its speed before
// its gateway, and a bad value a later write to the same capacity
// replaces is no error.
func TestWhatIfRejectsAsValidate(t *testing.T) {
	s, _ := pinnedWhatIfMix(t, 10, 0)
	bad := []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(27))
	rejected := 0
	for trial := 0; trial < 400; trial++ {
		var req WhatIfRequest
		for n := rng.Intn(4); n >= 0; n-- {
			k, v := rng.Intn(s.state.Load().pr.Platform.K()), 50*rng.Float64()
			if rng.Intn(3) == 0 {
				v = bad[rng.Intn(len(bad))]
			}
			if rng.Intn(2) == 0 {
				req.Speeds = append(req.Speeds, ClusterValue{Cluster: k, Value: v})
			} else {
				req.Gateways = append(req.Gateways, ClusterValue{Cluster: k, Value: v})
			}
		}
		want := s.state.Load().pr.Platform.Clone()
		for _, m := range req.Speeds {
			want.Clusters[m.Cluster].Speed = m.Value
		}
		for _, m := range req.Gateways {
			want.Clusters[m.Cluster].Gateway = m.Value
		}
		wantErr := want.Validate()
		s.mu.Lock()
		_, err := s.hypotheticalLocked(s.state.Load(), &req)
		s.mu.Unlock()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: rejected with %v, the hypothetical platform's Validate says %v", req, err, wantErr)
		}
		if err != nil {
			rejected++
		}
	}
	if rejected < 50 || rejected > 350 {
		t.Fatalf("%d of 400 requests rejected: the test lost its reach", rejected)
	}
}

// BenchmarkWhatIfZeroPivot times the zero-pivot relaxed what-if, the
// op that sets whatif_solve's median, at the session layer: validate,
// pose, solve, answer, retract, rewind, and write the body. It runs on
// the benchmark's K=40 network-bound session over the pinned mix's
// requests that take no pivot, each asked afresh (the answer table is
// flushed first), and reports ns/op and B/op.
func BenchmarkWhatIfZeroPivot(b *testing.B) { benchWhatIfs(b, false) }

// BenchmarkWhatIfPivoting is BenchmarkWhatIfZeroPivot's twin over the
// pinned mix's requests whose solve pivots: the what-ifs that set
// whatif_solve's tail and most of its bytes.
func BenchmarkWhatIfPivoting(b *testing.B) { benchWhatIfs(b, true) }

// BenchmarkWhatIfBatch times one batch_fork op at the session layer: a
// 64-query batch, 48 of them distinct, its body decoded, answered over 4
// pooled forks of the benchmark's K=20 session, and the answer's body
// written. The iterations cycle through the workload's 200 batches, drawn
// as the harness draws them, all off the same committed state: asked over
// and over, one batch would have every pivot after its first asking
// served by the forks' path caches, which the workload's replays of 200
// batches are not.
func BenchmarkWhatIfBatch(b *testing.B) {
	const workload, streamOps, batches, size, distinct = "batch_fork", 0, 200, 64, 48
	s, pl := benchSession(b, workload, 20)
	routes := remoteRoutes(pl)
	rng := benchStream(benchPinnedSeed, workload, streamOps)
	bodies := make([][]byte, batches)
	for i := range bodies {
		req := &BatchWhatIfRequest{Queries: make([]WhatIfRequest, size), Workers: defaultBatchWorkers}
		for d := range req.Queries {
			if d < distinct {
				req.Queries[d] = pinnedMutation(pl, routes, d, rng)
			} else {
				req.Queries[d] = req.Queries[rng.Intn(distinct)]
			}
		}
		rng.Shuffle(size, func(x, y int) { req.Queries[x], req.Queries[y] = req.Queries[y], req.Queries[x] })
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req BatchWhatIfRequest
		if err := decodeBatch(bodies[i%batches], &req); err != nil {
			b.Fatal(err)
		}
		resp, err := s.WhatIfBatch(&req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Distinct != distinct {
			b.Fatalf("%d distinct queries answered, want %d", resp.Distinct, distinct)
		}
		bp, ok := batchBytes(resp)
		if !ok {
			b.Fatal("a batch body the encoder cannot write")
		}
		reportBufs.Put(bp)
	}
}

// benchWhatIfs times the pinned K=40 mix's relaxed what-ifs that pivot,
// or those that do not, each asked afresh and its body written.
func benchWhatIfs(b *testing.B, pivoting bool) {
	s, ops := pinnedWhatIfMix(b, 40, 600)
	var picked []WhatIfRequest
	for _, q := range ops {
		s.answers.flush()
		pivots := s.Stats().Solver.Pivots
		if _, _, err := s.whatIf(&q); err != nil {
			b.Fatal(err)
		}
		if (s.Stats().Solver.Pivots != pivots) == pivoting {
			picked = append(picked, q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := picked[i%len(picked)]
		s.answers.flush()
		rep, _, err := s.whatIf(&q)
		if err != nil {
			b.Fatal(err)
		}
		bp, _ := reportBytes(rep)
		reportBufs.Put(bp)
	}
}

// BenchmarkHeuristicWhatIf times a heuristic what-if — the default,
// non-relaxed kind — at the session layer on the benchmark's K=20
// network-bound lprg session: validate, pose, LPRG on the hypothetical
// (its relaxation solved warm, then rounded and filled), retract,
// rewind, and write the body. It cycles through the pinned mix's 60
// speed, gateway and link what-ifs with Relax cleared (β boxes imply a
// relaxation, so those are left out), each asked afresh.
func BenchmarkHeuristicWhatIf(b *testing.B) {
	s, ops := pinnedWhatIfMix(b, 20, 80)
	var picked []WhatIfRequest
	for _, q := range ops {
		if len(q.Bounds) == 0 && len(picked) < 60 {
			q.Relax = false
			picked = append(picked, q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := picked[i%len(picked)]
		s.answers.flush()
		rep, _, err := s.whatIf(&q)
		if err != nil {
			b.Fatal(err)
		}
		bp, _ := reportBytes(rep)
		reportBufs.Put(bp)
	}
}

// TestSharedDiffServesEveryReader: a relaxed what-if told as a diff is
// filed once and read by everyone who asks for its key. On a pivoting
// what-if with moved cells, asked afresh in three rounds, each round's
// owner, coalesced waiters and cache hits, through the HTTP layer's path
// (the entry's stored bytes or the spliced encode) and through the
// exported Session.WhatIf (tables written out into a copy), all get the
// owner's body but for the one "cached" or "coalesced" line, and every
// owner the first answer's. The exported callers then overwrite the
// tables they were handed, and the filed diff and a later hit's bytes are
// what they were: the filed report is never written. Under -race this
// also holds that no reader writes what another one reads.
func TestSharedDiffServesEveryReader(t *testing.T) {
	s, ops := pinnedWhatIfMix(t, 10, 200)
	var q WhatIfRequest
	found := false
	for _, op := range ops {
		if a := askSpliced(t, s, op); a.spliced && a.pivoted && a.cells > 0 {
			q, found = op, true
			break
		}
	}
	if !found {
		t.Fatal("no pivoting what-if with moved cells in the pinned mix")
	}
	s.answers.flush()
	rep, _, err := s.whatIf(&q)
	if err != nil {
		t.Fatal(err)
	}
	want := string(encodeWhole(t, rep))
	filed := *rep.diff
	filed.Cells, filed.Values = slices.Clone(filed.Cells), slices.Clone(filed.Values)

	strip := func(body []byte) string {
		b := bytes.Replace(body, []byte(",\n  \"cached\": true"), nil, 1)
		return string(bytes.Replace(b, []byte(",\n  \"coalesced\": true"), nil, 1))
	}
	inFlight := func() bool {
		s.answers.mu.Lock()
		defer s.answers.mu.Unlock()
		for _, a := range s.answers.entries {
			if a.elem == nil {
				return true
			}
		}
		return false
	}
	type got struct {
		body  string
		kind  string
		owned *SolveReport // an exported caller's report
	}
	ask := func(exported bool) got {
		req := q
		if exported {
			rep, err := s.WhatIf(&req)
			if err != nil {
				t.Error(err)
				return got{}
			}
			var b bytes.Buffer
			if err := EncodeReport(&b, rep); err != nil {
				t.Error(err)
			}
			kind := "owner"
			if rep.Cached {
				kind = "hit"
			} else if rep.Coalesced {
				kind = "coalesced"
			}
			return got{strip(b.Bytes()), kind, rep}
		}
		rep, hit, err := s.whatIf(&req)
		if err != nil {
			t.Error(err)
			return got{}
		}
		if hit != nil {
			return got{strip(hit.wire()), "hit", nil}
		}
		bp, _ := reportBytes(rep)
		defer reportBufs.Put(bp)
		kind := "owner"
		if rep.Coalesced {
			kind = "coalesced"
		}
		return got{strip(*bp), kind, nil}
	}
	kinds := map[string]int{}
	for round := 0; round < 3; round++ {
		s.answers.flush()
		const n = 16
		results := make([]got, 2*n)
		var wg sync.WaitGroup
		run := func(from, to int) {
			for i := from; i < to; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = ask(i%2 == 1)
				}(i)
			}
		}
		// The owner claims the key and waits for the session; everyone
		// who claims it before the session is released waits on the flight.
		s.mu.Lock()
		run(0, 1) // results[0] is the owner
		for !inFlight() {
			runtime.Gosched()
		}
		run(1, n)
		time.Sleep(20 * time.Millisecond)
		s.mu.Unlock()
		wg.Wait()
		run(n, 2*n) // the entry is filed: hits
		wg.Wait()
		if results[0].body != want {
			t.Fatalf("round %d: the owner's answer differs from the first one\n got %s\nwant %s", round, results[0].body, want)
		}
		for i, g := range results {
			if g.body != results[0].body {
				t.Fatalf("round %d reader %d (%s): the body differs from the owner's\n got %s\nwant %s", round, i, g.kind, g.body, results[0].body)
			}
			kinds[g.kind]++
			if g.owned != nil {
				for _, rows := range [][][]float64{g.owned.Alpha, g.owned.BetaFrac} {
					for _, row := range rows {
						for l := range row {
							row[l] = -1
						}
					}
				}
			}
		}
		a := s.answers.lookup(string(mustJSON(t, q)))
		if a == nil || a.rep.diff == nil {
			t.Fatalf("round %d: the answer was not filed as a diff", round)
		}
		if d := a.rep.diff; d.body != filed.body || !slices.Equal(d.Cells, filed.Cells) || !slices.Equal(d.Values, filed.Values) {
			t.Fatalf("round %d: the filed diff was written", round)
		}
		if got := strip(a.wire()); got != results[0].body {
			t.Fatalf("round %d: after the exported callers wrote their tables, a hit serves\n%s\nwant\n%s", round, got, want)
		}
	}
	if kinds["owner"] != 3 || kinds["coalesced"] == 0 || kinds["hit"] == 0 {
		t.Fatalf("readers by kind %v: want one owner a round, and waiters and hits", kinds)
	}
	t.Logf("readers by kind: %v", kinds)
}

// encodeWhole is rep's body with its tables written out whole, through
// the one-pass encoder.
func encodeWhole(t *testing.T, rep *SolveReport) []byte {
	t.Helper()
	b, ok := appendReport(nil, rep.dense(), 0, false)
	if !ok {
		t.Fatal("the report has no JSON form")
	}
	return b
}

// mustJSON is the canonical answer-table key of a what-if.
func mustJSON(t *testing.T, q WhatIfRequest) []byte {
	t.Helper()
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
