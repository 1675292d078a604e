package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/platform"
	"repro/internal/platgen"
	"repro/internal/service"
)

// pinnedSeed draws the platforms and the content of the op lists:
// which what-ifs, which hot set, which drift targets, which batches.
// They are deliberately NOT drawn from -seed. The gate compares runs
// made with different seeds against bounds, and work that differs with
// the seed moves every metric by more than any bound: another K=40
// topology is another LP, and even on one platform 600 seeded what-ifs
// cost 3.6 to 4.4 pivots per op depending on the seed (3.3 to 4.8 for
// 200). -seed decides the order the pinned ops arrive in, in a way
// that leaves each op's cost — and so the multiset of costs — the same
// (see each workload's arrange), so runs with different seeds serve
// different request sequences that add up to identical work.
const pinnedSeed = 2005

// reqKind tells the direct-call re-drive which Session method a
// request maps to.
type reqKind int

const (
	kindWhatIf reqKind = iota
	kindQuery
	kindEpoch
	kindBatch
)

// request is one HTTP request of an op, fully rendered (the timed loop
// only copies bytes), plus its decoded form for the direct-call pass.
type request struct {
	node   int // entry node index
	method string
	path   string
	body   []byte
	trace  string // X-Schedd-Trace value: the op id

	kind   reqKind
	sess   *session
	whatIf *service.WhatIfRequest
	epoch  *service.EpochRequest
	batch  *service.BatchWhatIfRequest
}

// op is the unit every metric is per: one request, or on ring_adapt
// one adapt round of four.
type op struct{ reqs []request }

// session is one created schedd session and what the generator needs
// to mutate it.
type session struct {
	id      string
	entry   int    // node its create (and re-create) goes through
	create  []byte // POST /sessions body
	pl      *platform.Platform
	payoffs []float64
	routes  [][2]int // remote routes carrying a β variable
}

// workload is one traffic mix. n and r are the op-list length and the
// replay count of a full-length run; runs are bounded by these counts,
// never by the clock, so two commits always do identical work.
type workload struct {
	name  string
	why   string
	nodes int
	ks    []int // one session per entry, with that many clusters
	n, r  int
	// gen renders the op list from the pinned rng once the sessions
	// exist (paths carry their ids), in a canonical order.
	gen func(fx *fixture, n int, rng *rand.Rand) error
	// arrange reorders the rendered list from the -seed rng without
	// changing what any op costs.
	arrange func(wl *workload, ops []op, rng *rand.Rand)
	// before runs untimed ahead of every replay and returns the server
	// to the same state, so every replay does the same work. With
	// every > 0 it also runs after each every ops inside a replay.
	before func(fx *fixture) error
	every  int
}

var workloads = []*workload{
	{
		name:  "whatif_solve",
		why:   "every op is an uncached warm dual-simplex what-if on a K=40 session (a commit every 100), so internal/lp is the largest share of the op and the serving path a floor under it",
		nodes: 1, ks: []int{40}, n: 600, r: 20,
		gen:    genWhatIfSolve,
		before: identityEpoch, every: 100,
		// A what-if continues from the basis the previous one left, so
		// its cost depends on what came before it since the last commit:
		// whole commit-to-commit blocks move, their insides stay.
		arrange: func(wl *workload, ops []op, rng *rand.Rand) { shuffleBlocks(ops, wl.every, rng) },
	},
	{
		name:  "cached_read",
		why:   "every op is an answer-cache hit on one of 4 K=20 sessions, so lp does nothing and decode, mux, cache lookup, JSON encode and loopback are the whole op",
		nodes: 1, ks: []int{20, 20, 20, 20}, n: 1920, r: 72,
		gen: genCachedRead,
		// A cache hit costs the same wherever it comes.
		arrange: func(_ *workload, ops []op, rng *rand.Rand) { shuffleBlocks(ops, 1, rng) },
	},
	{
		name:  "ring_adapt",
		why:   "epoch commit plus three reads on a 3-node ring: forward hop, Rebase + LPRG commit solve, cache invalidation, snapshot encode and synchronous fan-out, which no other workload touches",
		nodes: 3, ks: []int{20, 20, 20, 20, 20, 20}, n: 216, r: 20,
		gen:    genRingAdapt,
		before: recreateSessions,
		// A commit solve starts from its own session's previous state,
		// so each session's rounds keep their order and entry nodes;
		// which session goes first within a sweep over the sessions is
		// free.
		arrange: func(wl *workload, ops []op, rng *rand.Rand) { shuffleWithin(ops, len(wl.ks), rng) },
	},
	{
		name:  "batch_fork",
		why:   "one op is a 64-query /whatif/batch (48 distinct) over forked solve contexts with no answer cache, so fork cost and per-context solve speed trade off against whatif_solve",
		nodes: 1, ks: []int{20}, n: 200, r: 8,
		gen: genBatchFork,
		// A batch forks off the committed state and leaves nothing behind.
		arrange: func(_ *workload, ops []op, rng *rand.Rand) { shuffleBlocks(ops, 1, rng) },
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// subRNG derives an independent stream for (seed, workload, purpose)
// by a splitmix64 finalizer, so workloads never share draws and adding
// a draw to one stream leaves the others' inputs unchanged.
func subRNG(seed int64, wl *workload, stream int) *rand.Rand {
	x := uint64(seed)
	for _, c := range []byte(wl.name) {
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

const (
	streamOps = iota
	streamOracle
	streamOrder
	streamPlatform // + session index
)

// shuffleBlocks permutes ops in whole blocks of size consecutive ops;
// a short last block stays last.
func shuffleBlocks(ops []op, size int, rng *rand.Rand) {
	blocks := len(ops) / size
	out := make([]op, 0, len(ops))
	for _, b := range rng.Perm(blocks) {
		out = append(out, ops[b*size:(b+1)*size]...)
	}
	copy(ops, out)
}

// shuffleWithin shuffles the ops inside each block of size consecutive
// ops.
func shuffleWithin(ops []op, size int, rng *rand.Rand) {
	for lo := 0; lo < len(ops); lo += size {
		block := ops[lo:min(lo+size, len(ops))]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
}

// newPlatform draws E15's network-bound platform (tight budgets and
// bandwidths, so per-query LP work dominates) with its non-uniform
// payoffs.
func newPlatform(k int, rng *rand.Rand) (*platform.Platform, []float64, error) {
	pl, err := platgen.Generate(platgen.Params{
		K:             k,
		Connectivity:  0.6,
		Heterogeneity: 0.6,
		MeanG:         450,
		MeanBW:        10,
		MeanMaxCon:    5,
	}, rng)
	if err != nil {
		return nil, nil, err
	}
	payoffs := make([]float64, k)
	for i := range payoffs {
		payoffs[i] = float64(1 + i%3)
	}
	return pl, payoffs, nil
}

// createSessions generates the workload's platforms and creates one
// lprg/maxmin session per platform, session i through node i mod
// nodes.
func (fx *fixture) createSessions() error {
	for i, k := range fx.wl.ks {
		pl, payoffs, err := newPlatform(k, subRNG(pinnedSeed, fx.wl, streamPlatform+i))
		if err != nil {
			return err
		}
		plJSON, err := pl.Encode()
		if err != nil {
			return err
		}
		create, err := json.Marshal(&service.CreateSessionRequest{
			Platform: plJSON, Objective: "maxmin", Heuristic: "lprg", Payoffs: payoffs,
		})
		if err != nil {
			return err
		}
		s := &session{entry: i % len(fx.nodes), create: create, pl: pl, payoffs: payoffs}
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				if rt := pl.Route(a, b); a != b && rt.Exists && len(rt.Links) > 0 {
					s.routes = append(s.routes, [2]int{a, b})
				}
			}
		}
		var resp service.CreateSessionResponse
		if err := fx.call(s.entry, http.MethodPost, "/sessions", create, &resp); err != nil {
			return err
		}
		s.id = resp.ID
		fx.sessions = append(fx.sessions, s)
	}
	return nil
}

// whatIfRequest renders one relaxed what-if against s.
func whatIfRequest(s *session, q *service.WhatIfRequest, trace string) (request, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return request{}, err
	}
	return request{
		node: s.entry, method: http.MethodPost, path: "/sessions/" + s.id + "/whatif",
		body: body, trace: trace, kind: kindWhatIf, sess: s, whatIf: q,
	}, nil
}

// pick is what one mutation touches and by how much.
type pick struct {
	cluster, link, route int
	scale                float64 // speed or gateway = committed value × scale
	budget, ub           int     // link budget, β upper bound
}

// randomPick draws every attribute independently.
func randomPick(s *session, rng *rand.Rand) pick {
	p := pick{cluster: rng.Intn(s.pl.K()), scale: 0.5 + rng.Float64(), budget: 1 + rng.Intn(9), ub: 1 + rng.Intn(4)}
	if len(s.pl.Links) > 0 {
		p.link = rng.Intn(len(s.pl.Links))
	}
	if len(s.routes) > 0 {
		p.route = rng.Intn(len(s.routes))
	}
	return p
}

// mutation renders one relaxed what-if of the given kind (speed,
// gateway, link budget, β box — E15's mix); every kind carries a
// scaled speed or gateway. β boxes keep lb = 0, so no hypothetical is
// infeasible and the warm path never legitimately falls back cold.
func mutation(s *session, kind int, p pick) *service.WhatIfRequest {
	speed := []service.ClusterValue{{Cluster: p.cluster, Value: s.pl.Clusters[p.cluster].Speed * p.scale}}
	gateway := []service.ClusterValue{{Cluster: p.cluster, Value: s.pl.Clusters[p.cluster].Gateway * p.scale}}
	q := &service.WhatIfRequest{Relax: true}
	switch {
	case kind%4 == 2 && len(s.pl.Links) > 0:
		q.Links = []service.LinkValue{{Link: p.link, MaxConnect: float64(p.budget)}}
		q.Speeds = speed
	case kind%4 == 3 && len(s.routes) > 0:
		r := s.routes[p.route]
		q.Bounds = []service.RouteBounds{{From: r[0], To: r[1], Lb: 0, Ub: float64(p.ub)}}
		q.Gateways = gateway
	case kind%2 == 0:
		q.Speeds = speed
	default:
		q.Gateways = gateway
	}
	return q
}

// genWhatIfSolve: n relaxed what-ifs, a quarter of each kind. Every
// scale is a fresh draw from [0.5, 1.5), so every op's canonical JSON
// differs and none can hit the answer cache within a replay.
func genWhatIfSolve(fx *fixture, n int, rng *rand.Rand) error {
	s := fx.sessions[0]
	for i := 0; i < n; i++ {
		rq, err := whatIfRequest(s, mutation(s, i, randomPick(s, rng)), fmt.Sprintf("o%d", i))
		if err != nil {
			return err
		}
		fx.ops = append(fx.ops, op{reqs: []request{rq}})
	}
	return nil
}

// identityEpoch commits an empty perturbation: the platform is
// unchanged, but the commit rotates the state digest (emptying the
// answer cache of the previous replay's what-ifs) and Rebases the
// solver, so every replay starts from the same canonical state.
//
// whatif_solve repeats it every 100 ops. A what-if continues from the
// basis the previous what-if ended on, not the committed one, and
// without commits in between that live basis wanders: pivots per
// what-if climb from ~4.5 to ~8 over the first ~300 and then
// fluctuate, and how fast depends chaotically on the list (a 0.1%
// change in one scale moved pivots per replay by ±10%, more than any
// bound). With a commit every 100 what-ifs — the adaptability loop's
// normal state — pivots per replay repeat to ±2% between seeds.
func identityEpoch(fx *fixture) error {
	s := fx.sessions[0]
	return fx.call(s.entry, http.MethodPost, "/sessions/"+s.id+"/epoch", []byte("{}"), nil)
}

// hotItems is the per-session hot set of cached_read: 47 what-ifs and
// the committed query, well under the session answer cache's 256.
const hotItems = 48

// genCachedRead: n requests cycling over sessions × hot set, every
// item equally often. After the set-up's warm-up replay each one is an
// answer-cache hit.
func genCachedRead(fx *fixture, n int, rng *rand.Rand) error {
	var hot []request
	for _, s := range fx.sessions {
		for j := 0; j < hotItems-1; j++ {
			rq, err := whatIfRequest(s, mutation(s, j, randomPick(s, rng)), "")
			if err != nil {
				return err
			}
			hot = append(hot, rq)
		}
		hot = append(hot, request{
			node: s.entry, method: http.MethodPost, path: "/sessions/" + s.id + "/query",
			kind: kindQuery, sess: s,
		})
	}
	for i := 0; i < n; i++ {
		rq := hot[i%len(hot)]
		rq.trace = fmt.Sprintf("o%d", i)
		fx.ops = append(fx.ops, op{reqs: []request{rq}})
	}
	return nil
}

// genRingAdapt: round j commits an epoch to session j mod S through
// entry node (j div S) mod 3, then reads the committed answer through
// each of the three nodes. Factors are target_j / target_{j-1} with
// targets uniform in [0.8, 1.2] per speed and gateway, so the
// capacities stay within ±20% of the generated platform however long
// the list is.
func genRingAdapt(fx *fixture, n int, rng *rand.Rand) error {
	prev := make([][]float64, len(fx.sessions)) // speeds then gateways
	for j := 0; j < n; j++ {
		si := j % len(fx.sessions)
		s := fx.sessions[si]
		k := s.pl.K()
		if prev[si] == nil {
			prev[si] = make([]float64, 2*k)
			for i := range prev[si] {
				prev[si][i] = 1
			}
		}
		ep := &service.EpochRequest{SpeedFactor: make([]float64, k), GatewayFactor: make([]float64, k)}
		for i := 0; i < 2*k; i++ {
			target := 0.8 + 0.4*rng.Float64()
			if i < k {
				ep.SpeedFactor[i] = target / prev[si][i]
			} else {
				ep.GatewayFactor[i-k] = target / prev[si][i]
			}
			prev[si][i] = target
		}
		body, err := json.Marshal(ep)
		if err != nil {
			return err
		}
		reqs := []request{{
			node: (j / len(fx.sessions)) % len(fx.nodes), method: http.MethodPost,
			path: "/sessions/" + s.id + "/epoch", body: body,
			trace: fmt.Sprintf("o%d.0", j), kind: kindEpoch, sess: s, epoch: ep,
		}}
		for nd := range fx.nodes {
			reqs = append(reqs, request{
				node: nd, method: http.MethodPost, path: "/sessions/" + s.id + "/query",
				trace: fmt.Sprintf("o%d.%d", j, nd+1), kind: kindQuery, sess: s,
			})
		}
		fx.ops = append(fx.ops, op{reqs: reqs})
	}
	return nil
}

// recreateSessions deletes every session and creates it again from
// its original platform, so each replay applies the op list's drift
// to the generated capacities. (Closing the factor cycle instead would
// leave the platform stationary only to rounding error, and a 1e-16
// capacity difference is enough to break the byte-for-byte oracle.)
func recreateSessions(fx *fixture) error {
	for _, s := range fx.sessions {
		if err := fx.call(s.entry, http.MethodDelete, "/sessions/"+s.id, nil, nil); err != nil {
			return err
		}
		if err := fx.call(s.entry, http.MethodPost, "/sessions", s.create, nil); err != nil {
			return err
		}
	}
	return nil
}

// Batch shape: E15's fleet-restart scenario, a quarter duplicates.
const (
	batchSize     = 64
	batchDistinct = 48
)

// genBatchFork: n batches, each batchDistinct fresh mutations plus
// duplicates of random picks among them, shuffled.
func genBatchFork(fx *fixture, n int, rng *rand.Rand) error {
	s := fx.sessions[0]
	for i := 0; i < n; i++ {
		b := &service.BatchWhatIfRequest{Queries: make([]service.WhatIfRequest, batchSize)}
		for d := 0; d < batchSize; d++ {
			if d < batchDistinct {
				b.Queries[d] = *mutation(s, d, randomPick(s, rng))
			} else {
				b.Queries[d] = b.Queries[rng.Intn(batchDistinct)]
			}
		}
		rng.Shuffle(batchSize, func(x, y int) { b.Queries[x], b.Queries[y] = b.Queries[y], b.Queries[x] })
		body, err := json.Marshal(b)
		if err != nil {
			return err
		}
		fx.ops = append(fx.ops, op{reqs: []request{{
			node: s.entry, method: http.MethodPost, path: "/sessions/" + s.id + "/whatif/batch",
			body: body, trace: fmt.Sprintf("o%d", i), kind: kindBatch, sess: s, batch: b,
		}}})
	}
	return nil
}

// opDigest is the SHA-256 of the serialized op list: two runs that
// print the same digest served byte-identical requests in the same
// order through the same entry nodes.
func opDigest(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		for _, rq := range o.reqs {
			fmt.Fprintf(h, "%d %s %s %s %d\n", rq.node, rq.method, rq.path, rq.trace, len(rq.body))
			h.Write(rq.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
