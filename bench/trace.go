package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/service"
)

// tracedReplays is how many replays the traced run makes with span
// recording off and then on; their ops_per_s ratio is the recording's
// own overhead.
const tracedReplays = 2

// span is one timed interval at a layer boundary. Client spans are
// recorded around each request; handler spans by the middleware the
// benchmark wraps around every node's Handler(). A forwarded or
// replicate hop is a handler span on the peer whose parent is the
// handler span of the node that sent it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a client span
	Trace  string `json:"trace"`  // the op id
	Node   string `json:"node"`   // "client", "n0", "n1", ...
	Name   string `json:"name"`
	Hop    string `json:"hop,omitempty"` // "forward" or "replicate" on peer spans
	Replay int    `json:"replay"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	op, req int    // client spans: position in the op list
	from    string // peer spans: the sending node's URL
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	on       atomic.Bool // true while a traced op's request is outstanding
	epoch    time.Time
	inflight atomic.Pointer[string] // op id of the request the one client has outstanding
	mu       sync.Mutex
	spans    []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanName is the route pattern, so names are bounded: the session id
// is replaced by {id}.
func spanName(method, path string) string {
	if rest, ok := strings.CutPrefix(path, "/sessions/"); ok {
		_, sub, _ := strings.Cut(rest, "/")
		path = "/sessions/{id}"
		if sub != "" {
			path += "/" + sub
		}
	}
	return method + " " + path
}

// wrap times every request a node's handler serves while recording is
// on. Replicate requests carry no trace header (the service does not
// propagate one there), but the single closed-loop client has exactly
// one request outstanding, so they belong to it.
func (t *tracer) wrap(nodeName string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Trace: r.Header.Get(traceHeader), Node: nodeName, Name: spanName(r.Method, r.URL.Path)}
		if from := r.Header.Get("X-Schedd-Forwarded"); from != "" {
			s.Hop, s.from = "forward", from
		} else if from := r.Header.Get("X-Schedd-From"); from != "" {
			s.Hop, s.from = "replicate", from
		}
		if s.Trace == "" {
			if id := t.inflight.Load(); id != nil {
				s.Trace = *id
			}
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		s.Start = start.Sub(t.epoch).Nanoseconds()
		s.End = time.Since(t.epoch).Nanoseconds()
		t.add(s)
	})
}

// begin and end bracket one request of a traced replay: handler spans
// are recorded only in between, and ones without a trace header are
// attributed to rq.
func (t *tracer) begin(rq *request) {
	t.inflight.Store(&rq.trace)
	t.on.Store(true)
}

func (t *tracer) end() { t.on.Store(false) }

// client records the span of one request as the client saw it.
func (t *tracer) client(rq *request, replay, op, req int, sent time.Time, rtt time.Duration) {
	start := sent.Sub(t.epoch).Nanoseconds()
	t.add(span{
		Trace: rq.trace, Node: "client", Name: spanName(rq.method, rq.path), Replay: replay,
		Start: start, End: start + rtt.Nanoseconds(), op: op, req: req,
	})
}

// resolve numbers the spans in start order and links each handler
// span to its parent: the latest-starting span of the same op that
// contains it on the node that sent the request (the client, or the
// forwarding / replicating peer).
func (t *tracer) resolve(fx *fixture) []span {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byTrace := map[string][]int{}
	for i := range spans {
		spans[i].ID = i + 1
		byTrace[spans[i].Trace] = append(byTrace[spans[i].Trace], i)
	}
	for i := range spans {
		s := &spans[i]
		if s.Node == "client" {
			continue
		}
		sender := "client"
		if s.from != "" {
			sender = fx.nodeName(s.from)
		}
		for _, j := range byTrace[s.Trace] {
			p := &spans[j]
			if j != i && p.Node == sender && p.Start <= s.Start && p.End >= s.End {
				s.Parent, s.Replay = p.ID, p.Replay // start order: the last match is the innermost
			}
		}
	}
	return spans
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Digest   string `json:"digest"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tf.Workload+".trace.json"), data, 0o644)
}

// opSpans is what the trace says about one op in one traced replay.
type opSpans struct {
	client, handler time.Duration // summed over the op's requests
	requests        int
	forwarded       int
	local, remote   []time.Duration // query round trips: served by the entry node / forwarded
}

// perOp folds resolved spans into per-(replay, op) totals.
func perOp(spans []span, n int) [][]opSpans {
	out := make([][]opSpans, tracedReplays)
	for r := range out {
		out[r] = make([]opSpans, n)
	}
	children := map[int][]int{}
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], i)
	}
	for i := range spans {
		c := &spans[i]
		if c.Node != "client" {
			continue
		}
		o := &out[c.Replay][c.op]
		rtt := time.Duration(c.End - c.Start)
		o.client += rtt
		o.requests++
		forwarded := false
		for _, h := range children[c.ID] {
			o.handler += time.Duration(spans[h].End - spans[h].Start)
			for _, g := range children[spans[h].ID] {
				forwarded = forwarded || spans[g].Hop == "forward"
			}
		}
		if forwarded {
			o.forwarded++
		}
		if strings.HasSuffix(c.Name, "/query") {
			if forwarded {
				o.remote = append(o.remote, rtt)
			} else {
				o.local = append(o.local, rtt)
			}
		}
	}
	return out
}

func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

func micros(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the per-layer pass: one set-up, tracedReplays replays
// with recording off, the same with it on, then the op list once more
// by direct calls into the session layer and the stand-alone layer
// probes. It writes <dir>/<workload>.trace.json.
func runTraced(wl *workload, seed int64, n int, dir string) (*result, error) {
	res := &result{workload: wl.name, seed: seed, n: n, r: 2 * tracedReplays, metrics: map[string]value{}}
	tr := newTracer()
	fx, _, err := setup(wl, seed, n, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	defer fx.close()
	res.digest = fx.digest
	runtime.GC()

	// Alternate plain and traced replays, so host drift during the run
	// does not read as recording overhead.
	var plain, traced []*replayStats
	for i := 0; i < 2*tracedReplays; i++ {
		rs, err := fx.replay(i/2, i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run, replay %d: %w", wl.name, i, err)
		}
		if i%2 == 0 {
			plain = append(plain, rs)
		} else {
			traced = append(traced, rs)
		}
	}
	spans := tr.resolve(fx)
	if err := writeTrace(dir, &traceFile{Workload: wl.name, Seed: seed, Digest: fx.digest, Spans: spans}); err != nil {
		return nil, err
	}

	res.attempted = n * 2 * tracedReplays
	_, res.failed = filtered(append(append([]*replayStats(nil), plain...), traced...))
	res.problems = solverInvariants(append(plain, traced...))
	res.spreadPct = spreadPct(plain)
	res.pivotMin, res.pivotMax = pivotRange(append(plain, traced...))
	fn := float64(n)

	// client: the unfiltered view.
	var raw []float64
	walls := make([]float64, len(plain))
	for i, rs := range plain {
		walls[i] = rs.wall.Seconds()
		for _, d := range rs.lat {
			raw = append(raw, float64(d)/1e6)
		}
	}
	sort.Float64s(raw)
	res.set("client.wall_ops_per_s", fn/median(walls))
	res.set("client.raw_p50_ms", percentile(raw, 0.50))
	res.set("client.raw_p99_ms", percentile(raw, 0.99))
	res.set("client.replay_spread_pct", res.spreadPct)
	plainQ, _ := filtered(plain)
	tracedQ, _ := filtered(traced)
	res.set("client.trace_overhead_pct", 100*(ratio(ratio(sum(tracedQ), float64(len(tracedQ))), ratio(sum(plainQ), float64(len(plainQ))))-1))

	// http / service / router: per op, the traced replay whose client
	// round trip was faster speaks for the op (the end-to-end filter),
	// so handler + http.self add up to the round trip exactly unless a
	// span is missing.
	ops := perOp(spans, n)
	var client, handler, requests, forwarded float64
	var hops []float64
	for i := 0; i < n; i++ {
		best := &ops[0][i]
		for r := 1; r < tracedReplays; r++ {
			if o := &ops[r][i]; o.client < best.client {
				best = o
			}
		}
		client += float64(best.client)
		handler += float64(best.handler)
		requests += float64(best.requests)
		forwarded += float64(best.forwarded)
		if len(best.local) > 0 && len(best.remote) > 0 {
			hops = append(hops, mean(best.remote)-mean(best.local))
		}
	}
	res.set("service.handler_us", micros(handler/fn))
	res.set("http.self_us", micros((client-handler)/fn))
	res.set("router.forward_ratio", ratio(forwarded, requests))
	res.set("router.forward_hop_us", micros(median(hops)))
	if got := sum(tracedQ) * 1e6; math.Abs(client-got) > 0.05*got {
		res.problems = append(res.problems, fmt.Sprintf("%s: client spans sum to %.0f us/op but the client measured %.0f us/op", wl.name, micros(client/fn), micros(got/fn)))
	}

	session, err := fx.direct()
	if err != nil {
		return nil, fmt.Errorf("%s: direct-call pass: %w", wl.name, err)
	}
	res.set("service.session_us", micros(session))
	res.set("service.codec_self_us", micros(handler/fn-session))
	res.set("service.req_kb_per_op", float64(plain[0].reqBytes)/1024/fn)
	res.set("service.resp_kb_per_op", float64(plain[0].respBytes)/1024/fn)

	// Counts: /stats and /metrics deltas around the traced replays.
	var d counters
	for _, rs := range traced {
		d = d.plus(rs.delta, 1)
	}
	last := traced[len(traced)-1]
	tops := fn * tracedReplays
	res.set("service.cache_hit_ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)))
	res.set("service.coalesced_ratio", ratio(float64(d.coalesced), float64(d.whatIfs+d.coalesced)))
	res.set("service.failed_ops", float64(res.failed))
	res.set("router.retries", float64(d.retries))
	res.set("router.failovers", float64(d.failovers))
	res.set("replication.fanout_us", 1e6*ratio(d.fanoutSeconds, d.fanoutObservations))
	res.set("replication.sent_per_commit", ratio(float64(d.replicasSent), float64(d.epochs)))
	res.set("replication.errors", float64(d.replicaErrors))

	st := d.solver
	phase := float64(st.Phase.FTRANNanos + st.Phase.BTRANNanos + st.Phase.PricingNanos + st.Phase.RatioTestNanos + st.Phase.RefactorNanos)
	res.set("lp.pivots_per_op", float64(st.Pivots)/tops)
	res.set("lp.us_per_pivot", micros(ratio(phase, float64(st.Pivots))))
	res.set("lp.warm_solves_per_op", float64(st.WarmSolves)/tops)
	res.set("lp.cold_solves", float64(st.ColdSolves))
	res.set("lp.cold_fallbacks", float64(st.ColdFallbacks))
	res.set("lp.refactors_per_op", float64(st.Refactorizations)/tops)
	res.set("lp.bound_flips_per_op", float64(st.BoundFlips)/tops)
	res.set("lp.ft_updates_per_op", float64(st.FTUpdates)/tops)
	res.set("lp.forks_per_op", float64(st.Forks)/tops)
	res.set("lp.ftran_us_per_op", micros(float64(st.Phase.FTRANNanos)/tops))
	res.set("lp.btran_us_per_op", micros(float64(st.Phase.BTRANNanos)/tops))
	res.set("lp.pricing_us_per_op", micros(float64(st.Phase.PricingNanos)/tops))
	res.set("lp.ratio_us_per_op", micros(float64(st.Phase.RatioTestNanos)/tops))
	res.set("lp.refactor_us_per_op", micros(float64(st.Phase.RefactorNanos)/tops))
	res.set("lp.phase_sum_us_per_op", micros(phase/tops))
	res.set("model.self_us", micros(session-phase/tops))

	res.set("obs.scrape_ms", last.scrape.Seconds()*1e3)
	res.set("obs.scrape_kb", float64(last.scrapeBytes)/1024)

	// go: the runtime's view of the untraced replays.
	var mallocs, cycles, pause float64
	for _, rs := range plain {
		mallocs += float64(rs.mallocs)
		cycles += float64(rs.gcCycles)
		pause += float64(rs.gcPause)
	}
	pops := fn * float64(len(plain))
	res.set("go.allocs_per_op", mallocs/pops)
	res.set("go.gc_cycles_per_kop", 1e3*cycles/pops)
	res.set("go.gc_pause_us_per_op", micros(pause/pops))
	res.set("go.live_heap_mb", float64(plain[len(plain)-1].liveHeap)/(1<<20))

	if err := fx.probeLayers(res); err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", wl.name, err)
	}
	return res, nil
}

// live returns the live session with the given id on whichever node
// holds it.
func (fx *fixture) live(id string) *service.Session {
	for _, nd := range fx.nodes {
		if s := nd.server.Pool().Get(id); s != nil {
			return s
		}
	}
	return nil
}

// direct re-drives the op list by calling the session layer's public
// methods with already-decoded requests — the handler span one level
// down — and returns the mean per-op time in nanoseconds, each op
// taking its faster of two passes. On ring_adapt the commit hook
// (snapshot and fan-out) runs inside EpochIdempotent, as it does
// inside the handler.
func (fx *fixture) direct() (float64, error) {
	best := make([]time.Duration, len(fx.ops))
	for pass := 0; pass < tracedReplays; pass++ {
		for i := range fx.ops {
			if err := fx.reset(i); err != nil {
				return 0, err
			}
			var took time.Duration
			for j := range fx.ops[i].reqs {
				rq := &fx.ops[i].reqs[j]
				sess := fx.live(rq.sess.id)
				if sess == nil {
					return 0, fmt.Errorf("op %d: session %s is live on no node", i, rq.sess.id)
				}
				var err error
				start := time.Now()
				switch rq.kind {
				case kindWhatIf:
					_, err = sess.WhatIf(rq.whatIf)
				case kindQuery:
					_, err = sess.Query()
				case kindEpoch:
					_, err = sess.EpochIdempotent(rq.epoch, "")
				case kindBatch:
					_, err = sess.WhatIfBatch(rq.batch)
				}
				took += time.Since(start)
				if err != nil {
					return 0, fmt.Errorf("op %d: %w", i, err)
				}
			}
			if pass == 0 || took < best[i] {
				best[i] = took
			}
		}
	}
	return mean(best), nil
}

// fastest is the shortest of reps timed calls of f, in nanoseconds.
func fastest(reps int, f func() error) (float64, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(start))
	}
	return float64(best), nil
}

// probeLayers times the layers no request path isolates, on session
// 0: the snapshot codec and warm restore, the ring lookup, and an
// LPRG commit solve on a stand-alone model.
func (fx *fixture) probeLayers(res *result) error {
	s0 := fx.sessions[0]
	sess := fx.live(s0.id)
	if sess == nil {
		return fmt.Errorf("session %s is live on no node", s0.id)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		return err
	}
	var data []byte
	encode, err := fastest(5, func() (err error) { data, err = snap.Encode(); return err })
	if err != nil {
		return err
	}
	decode, err := fastest(5, func() (err error) { snap, err = cluster.DecodeSnapshot(data); return err })
	if err != nil {
		return err
	}
	restore, err := fastest(3, func() error { _, _, _, err := service.RestoreSession(snap); return err })
	if err != nil {
		return err
	}
	res.set("cluster.snapshot_kb", float64(len(data))/1024)
	res.set("cluster.snapshot_encode_us", micros(encode))
	res.set("cluster.snapshot_decode_us", micros(decode))
	res.set("cluster.restore_ms", restore/1e6)

	urls := make([]string, len(fx.nodes))
	for i, nd := range fx.nodes {
		urls[i] = nd.url
	}
	ring := cluster.NewRing(urls, 0)
	const lookups = 100000
	start := time.Now()
	for i := 0; i < lookups; i++ {
		if ring.Owner(s0.id) == "" {
			return fmt.Errorf("ring owns nothing")
		}
	}
	res.set("cluster.ring_owner_ns", float64(time.Since(start).Nanoseconds())/lookups)

	pr := core.NewProblem(s0.pl)
	pr.Payoffs = s0.payoffs
	model, err := pr.NewModel(core.MAXMIN)
	if err != nil {
		return err
	}
	_, basis, err := heuristics.LPRGOnModel(model, pr, core.MAXMIN, nil)
	if err != nil {
		return err
	}
	lprg, err := fastest(3, func() error {
		model.Rebase() // as Session.solveLocked does before every commit solve
		_, _, err := heuristics.LPRGOnModel(model, pr, core.MAXMIN, basis)
		return err
	})
	if err != nil {
		return err
	}
	res.set("heuristics.lprg_us", micros(lprg))
	return nil
}
