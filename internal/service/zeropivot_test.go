package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

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
	var routes [][2]int
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if rt := pl.Route(a, b); a != b && rt.Exists && len(rt.Links) > 0 {
				routes = append(routes, [2]int{a, b})
			}
		}
	}
	rng := benchStream(benchPinnedSeed, workload, streamOps)
	ops := make([]WhatIfRequest, n)
	for i := range ops {
		ops[i] = pinnedMutation(pl, routes, i, rng)
	}
	return s, ops
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
	s, _, _, err := NewPool(1).GetOrCreate(&CreateSessionRequest{
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

// spliceCost is what a relaxed what-if's answer cost above the solver's
// pivots: the basis rows the solver refiled and the X entries it wrote
// (through core.Model.Moved) and the table cells the encoder wrote anew.
type spliceCost struct{ rows, cols, cells int }

// askSpliced answers q afresh and holds its body, as the server writes
// it, to the one-pass encoder's bytes. ok is false when the solve took a
// pivot or was not spliced.
func askSpliced(t *testing.T, s *Session, q WhatIfRequest) (cost spliceCost, ok bool) {
	t.Helper()
	s.answers.flush()
	pivots := s.Stats().Solver.Pivots
	rep, _, err := s.whatIf(&q)
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := reportBytes(rep)
	defer reportBufs.Put(bp)
	whole := *rep
	whole.spliced, whole.cells = nil, nil
	want, _ := appendReport(nil, &whole, 0, false)
	if !bytes.Equal(*bp, want) {
		t.Fatalf("%+v: the spliced body differs from the one encoded whole\n got %s\nwant %s", q, *bp, want)
	}
	// The other forms write a spliced report's tables whole.
	if compact, err := json.Marshal(rep); err != nil || !bytes.Equal(marshalReport(rep), compact) {
		t.Fatalf("%+v: a spliced report's compact bytes differ from json.Marshal's (%v)", q, err)
	}
	rows, cols, moved := s.model.Moved()
	if s.Stats().Solver.Pivots != pivots || !moved || rep.spliced == nil {
		return spliceCost{}, false
	}
	return spliceCost{rows, cols, len(rep.cells)}, true
}

// TestZeroPivotWhatIfCostsWhatMoved is the clock-free guard on the
// zero-pivot what-if: above one sparse FTRAN, it costs what the request
// moved, not what the session holds. On the benchmark's network-bound
// platform at K=10 and at K=40, a gateway what-if on a cluster whose
// gateway row has a basic slack (its answer keeps every cell) refiles
// one basis row, writes no X entry and encodes no table cell anew — the
// same counts at both sizes — and over the pinned mix every body the
// server writes, spliced or not, is byte for byte the one-pass
// encoder's.
func TestZeroPivotWhatIfCostsWhatMoved(t *testing.T) {
	costs := map[int]spliceCost{}
	for _, k := range []int{10, 40} {
		s, ops := pinnedWhatIfMix(t, k, 200)
		spliced, moved := 0, 0
		for _, q := range ops {
			if c, ok := askSpliced(t, s, q); ok {
				spliced++
				if c.cells > 0 {
					moved++
				}
			}
		}
		if spliced < 40 || moved == 0 {
			t.Fatalf("K=%d: %d of %d what-ifs spliced, %d of those with moved cells: the mix lost its reach", k, spliced, len(ops), moved)
		}
		found := false
		for c := 0; c < k && !found; c++ {
			g := s.pl.Clusters[c].Gateway
			for _, scale := range []float64{1.25, 1.5, 2} {
				cost, ok := askSpliced(t, s, WhatIfRequest{Relax: true, Gateways: []ClusterValue{{Cluster: c, Value: g * scale}}})
				if ok && cost.cols == 0 && cost.cells == 0 {
					costs[k], found = cost, true
					break
				}
			}
		}
		if !found {
			t.Fatalf("K=%d: no gateway what-if left every cell in place", k)
		}
		t.Logf("K=%d: %d of %d pinned what-ifs spliced (%d with moved cells); a basic-slack gateway what-if refiles %d rows, writes %d X entries, encodes %d cells",
			k, spliced, len(ops), moved, costs[k].rows, costs[k].cols, costs[k].cells)
	}
	if costs[10] != costs[40] || costs[40] != (spliceCost{rows: 1}) {
		t.Fatalf("a basic-slack gateway what-if costs %+v at K=10 and %+v at K=40, want one row refiled at both", costs[10], costs[40])
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
			k, v := rng.Intn(s.pl.K()), 50*rng.Float64()
			if rng.Intn(3) == 0 {
				v = bad[rng.Intn(len(bad))]
			}
			if rng.Intn(2) == 0 {
				req.Speeds = append(req.Speeds, ClusterValue{Cluster: k, Value: v})
			} else {
				req.Gateways = append(req.Gateways, ClusterValue{Cluster: k, Value: v})
			}
		}
		want := s.pl.Clone()
		for _, m := range req.Speeds {
			want.Clusters[m.Cluster].Speed = m.Value
		}
		for _, m := range req.Gateways {
			want.Clusters[m.Cluster].Gateway = m.Value
		}
		wantErr := want.Validate()
		s.mu.Lock()
		_, err := s.hypotheticalLocked(&req)
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
func BenchmarkWhatIfZeroPivot(b *testing.B) {
	s, ops := pinnedWhatIfMix(b, 40, 600)
	var zero []WhatIfRequest
	for _, q := range ops {
		s.answers.flush()
		pivots := s.Stats().Solver.Pivots
		if _, _, err := s.whatIf(&q); err != nil {
			b.Fatal(err)
		}
		if s.Stats().Solver.Pivots == pivots {
			zero = append(zero, q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := zero[i%len(zero)]
		s.answers.flush()
		rep, _, err := s.whatIf(&q)
		if err != nil {
			b.Fatal(err)
		}
		bp, _ := reportBytes(rep)
		reportBufs.Put(bp)
	}
}
