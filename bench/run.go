package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupBuilds is how many times the fixture is built on fresh pools
// and rings; setup_s is the median build and the last one is used.
const setupBuilds = 3

// noisySpreadPct marks a pass whose replay walls differ by more than
// this share of the fastest: a loud host, not a regression.
const noisySpreadPct = 30

// setup builds one fixture: boot the nodes, create the sessions (their
// cold solves included), render the op list, and run one warm-up
// replay so caches, connections and the heap are in steady state. It
// returns how long that took, at nominal host speed: the part before
// the warm-up replay over the lower of the host factors read before
// and after it, the replay over its own level. A traced
// set-up (tr != nil) reads no host speed and reports plain seconds.
func setup(wl *workload, seed int64, n int, tr *tracer) (*fixture, float64, error) {
	// One P: the client and the servers alternate and never overlap, so
	// a second P adds only idle spinning (which getrusage bills) and
	// cross-vCPU wake-ups, and the host-speed probe would read one core
	// while the server ran on another.
	runtime.GOMAXPROCS(1)
	calibrate := tr == nil
	start := time.Now()
	before := 1.0
	if calibrate {
		before = hostFactor()
	}
	fx, err := boot(wl.nodes, tr)
	if err != nil {
		return nil, 0, err
	}
	fx.wl, fx.calibrate = wl, calibrate
	if err := fx.createSessions(); err != nil {
		fx.close()
		return nil, 0, err
	}
	if err := wl.gen(fx, n, subRNG(pinnedSeed, wl, streamOps)); err != nil {
		fx.close()
		return nil, 0, err
	}
	wl.arrange(wl, fx.ops, subRNG(seed, wl, streamOrder))
	fx.digest = opDigest(fx.ops)
	after := 1.0
	if calibrate {
		after = hostFactor()
	}
	built := time.Since(start)
	warm, err := fx.replay(0, false)
	if err != nil {
		fx.close()
		return nil, 0, err
	}
	took := built.Seconds()/min(before, after) + (time.Since(start)-built).Seconds()/warm.hostLevel()
	return fx, took, nil
}

// replayStats is what one replay of the op list measured.
type replayStats struct {
	lat    []time.Duration // per op: sum of its requests' round trips
	digest []uint64        // per op: hash of the responses' stable parts
	bad    []bool          // per op: transport error, non-2xx, or the op's responses disagree
	wall   time.Duration   // the probes' own time taken out
	cpu    time.Duration   // process user+sys over the replay, likewise

	// host is the host-speed factor read every probeInterval during the
	// replay and once after it; hostAt[i] is the last reading before op
	// i. Both are nil when the fixture does not calibrate.
	host   []float64
	hostAt []int

	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	liveHeap            uint64
	reqBytes, respBytes int

	delta counters // /stats (and, traced, /metrics) after − before

	scrape      time.Duration // traced: one /metrics scrape of every node
	scrapeBytes int
}

var (
	hashSeed = maphash.MakeSeed()
	epochKey = []byte("\n  \"epoch\":")
)

// stablePart is a response body without the fields that legitimately
// differ between replays: the service writes indented JSON with
// "epoch" as the first of the trailing top-level keys (epoch,
// coalesced, cached, stats), so everything before it — verdict, value,
// bound, allocation tables — must repeat byte for byte.
func stablePart(body []byte) []byte {
	if i := bytes.LastIndex(body, epochKey); i >= 0 {
		return body[:i]
	}
	return body
}

// factor is the host-speed factor op i's latency is divided by: the
// lower of the readings on either side of it. A reading can only err
// high (the kernel was interrupted in all three of its runs), and a
// latency divided by too high a factor would win the minimum over
// replays; erring low merely loses it.
func (rs *replayStats) factor(i int) float64 {
	if rs.host == nil {
		return 1
	}
	k := rs.hostAt[i]
	return min(rs.host[k], rs.host[k+1])
}

// hostLevel is the replay's host-speed factor: the median reading, for
// the same reason.
func (rs *replayStats) hostLevel() float64 {
	if rs.host == nil {
		return 1
	}
	return median(rs.host)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reset runs the workload's before hook when op i is due one: ahead of
// op 0, and then every wl.every ops.
func (fx *fixture) reset(i int) error {
	wl := fx.wl
	if wl.before == nil || (i > 0 && (wl.every == 0 || i%wl.every != 0)) {
		return nil
	}
	if err := wl.before(fx); err != nil {
		return fmt.Errorf("before op %d: %w", i, err)
	}
	return nil
}

// replay runs the before hook, then sends the op list once, closed
// loop, one request at a time. With tracing, spans are recorded under
// replay number index while an op's request is outstanding (so not for
// the hook or the scrapes), and /metrics is scraped beside /stats. A
// calibrating fixture reads the host speed before the first op, then
// before the first op that starts probeInterval after the last
// reading, and after the last op; never inside an op.
func (fx *fixture) replay(index int, tracing bool) (*replayStats, error) {
	if err := fx.reset(0); err != nil {
		return nil, err
	}
	n := len(fx.ops)
	rs := &replayStats{lat: make([]time.Duration, n), digest: make([]uint64, n), bad: make([]bool, n)}
	if fx.calibrate {
		rs.hostAt = make([]int, n)
	}
	var probing time.Duration // spent reading the host speed
	var lastRead time.Time
	readHost := func() {
		t := time.Now()
		rs.host = append(rs.host, hostFactor())
		lastRead = time.Now()
		probing += lastRead.Sub(t)
	}
	before, err := fx.scrapeStats()
	if err != nil {
		return nil, err
	}
	if tracing {
		if _, _, err := fx.scrapeMetrics(&before); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for i := range fx.ops {
		if i > 0 {
			if err := fx.reset(i); err != nil {
				return nil, err
			}
		}
		if fx.calibrate {
			if i == 0 || time.Since(lastRead) >= probeInterval {
				readHost()
			}
			rs.hostAt[i] = len(rs.host) - 1
		}
		var first uint64
		for j := range fx.ops[i].reqs {
			rq := &fx.ops[i].reqs[j]
			if tracing {
				fx.tracer.begin(rq)
			}
			sent, rtt, ok, err := fx.send(rq)
			if tracing {
				fx.tracer.end()
			}
			if err != nil || !ok {
				rs.bad[i] = true
				continue
			}
			if tracing {
				fx.tracer.client(rq, index, i, j, sent, rtt)
			}
			rs.lat[i] += rtt
			rs.reqBytes += len(rq.body)
			rs.respBytes += fx.buf.Len()
			h := maphash.Bytes(hashSeed, stablePart(fx.buf.Bytes()))
			if j == 0 {
				first = h
			} else if h != first {
				// ring_adapt: the three reads must return exactly what
				// the commit answered, whichever node they entered by.
				rs.bad[i] = true
			}
		}
		rs.digest[i] = first
	}
	if fx.calibrate {
		readHost()
	}
	rs.wall = time.Since(start) - probing
	rs.cpu = cpuTime() - cpu0 - probing // the kernel is pure CPU
	runtime.ReadMemStats(&m1)
	rs.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rs.mallocs = m1.Mallocs - m0.Mallocs
	rs.gcCycles = m1.NumGC - m0.NumGC
	rs.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	rs.liveHeap = m1.HeapAlloc
	after, err := fx.scrapeStats()
	if err != nil {
		return nil, err
	}
	if tracing {
		if rs.scrape, rs.scrapeBytes, err = fx.scrapeMetrics(&after); err != nil {
			return nil, err
		}
	}
	rs.delta = after.plus(before, -1)
	return rs, nil
}

// plus returns c + k·b over every counter the benchmark reports: k = -1
// makes a delta, k = 1 sums deltas. (lp.Stats.Add cannot subtract, and
// keeps maxima for fields that are not reported here.)
func (c counters) plus(b counters, k int) counters {
	c.solver.Pivots += k * b.solver.Pivots
	c.solver.BoundFlips += k * b.solver.BoundFlips
	c.solver.Refactorizations += k * b.solver.Refactorizations
	c.solver.ColdSolves += k * b.solver.ColdSolves
	c.solver.WarmSolves += k * b.solver.WarmSolves
	c.solver.ColdFallbacks += k * b.solver.ColdFallbacks
	c.solver.FTUpdates += k * b.solver.FTUpdates
	c.solver.Forks += k * b.solver.Forks
	c.solver.Phase.FTRANNanos += int64(k) * b.solver.Phase.FTRANNanos
	c.solver.Phase.BTRANNanos += int64(k) * b.solver.Phase.BTRANNanos
	c.solver.Phase.PricingNanos += int64(k) * b.solver.Phase.PricingNanos
	c.solver.Phase.RatioTestNanos += int64(k) * b.solver.Phase.RatioTestNanos
	c.solver.Phase.RefactorNanos += int64(k) * b.solver.Phase.RefactorNanos
	c.whatIfs += int64(k) * b.whatIfs
	c.coalesced += int64(k) * b.coalesced
	c.epochs += int64(k) * b.epochs
	c.cacheHits += int64(k) * b.cacheHits
	c.cacheMisses += int64(k) * b.cacheMisses
	c.retries += int64(k) * b.retries
	c.failovers += int64(k) * b.failovers
	c.replicasSent += int64(k) * b.replicasSent
	c.replicaErrors += int64(k) * b.replicaErrors
	c.fanoutSeconds += float64(k) * b.fanoutSeconds
	c.fanoutObservations += float64(k) * b.fanoutObservations
	return c
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's pass.
type result struct {
	workload   string
	seed       int64
	n, r       int
	digest     string
	attempted  int
	failed     int
	problems   []string // oracle findings; empty means correct
	metrics    map[string]value
	replayMs   []float64 // wall time of each timed replay
	spreadPct  float64   // client.replay_spread_pct of the timed replays
	hostFactor float64   // median over replays of the mean host-speed factor; 0 on a traced run
	pivotMin   int       // lp pivots per replay, min and max over replays
	pivotMax   int
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.metrics[name] = value{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// filtered applies the replay-min estimator: q_i is op i's fastest
// latency over the replays, each taken at nominal host speed (divided
// by the host factor around it), in milliseconds. An op that failed in any
// replay — or answered differently from replay 0 — gets no q; the
// count of such (op, replay) attempts is returned.
func filtered(reps []*replayStats) (q []float64, failed int) {
	n := len(reps[0].lat)
	for i := 0; i < n; i++ {
		best := math.Inf(1)
		ok := true
		for _, rs := range reps {
			if rs.bad[i] || rs.digest[i] != reps[0].digest[i] {
				failed++
				ok = false
				continue
			}
			best = min(best, float64(rs.lat[i])/rs.factor(i))
		}
		if ok {
			q = append(q, best/1e6)
		}
	}
	return q, failed
}

// percentile of an ascending slice, nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spreadPct is (max − min) / min of the replay walls, in percent.
func spreadPct(reps []*replayStats) float64 {
	lo, hi := reps[0].wall, reps[0].wall
	for _, rs := range reps {
		lo, hi = min(lo, rs.wall), max(hi, rs.wall)
	}
	return 100 * float64(hi-lo) / float64(lo)
}

// run is one end-to-end pass of a workload: set up three times, replay
// r times untraced, run the oracle, and reduce to the six metrics.
func run(wl *workload, seed int64, n, r int) (*result, error) {
	res := &result{workload: wl.name, seed: seed, n: n, r: r, metrics: map[string]value{}}
	var fx *fixture
	setups := make([]float64, setupBuilds)
	for b := range setups {
		if fx != nil {
			fx.close()
		}
		var err error
		if fx, setups[b], err = setup(wl, seed, n, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		if b > 0 && fx.digest != res.digest {
			fx.close()
			return nil, fmt.Errorf("%s: seed %d rendered op lists %s and %s", wl.name, seed, res.digest, fx.digest)
		}
		res.digest = fx.digest
	}
	defer fx.close()
	runtime.GC() // the two discarded fixtures are garbage; do not bill them to replay 0

	reps := make([]*replayStats, r)
	for i := range reps {
		var err error
		if reps[i], err = fx.replay(i, false); err != nil {
			return nil, fmt.Errorf("%s: replay %d: %w", wl.name, i, err)
		}
	}
	res.attempted = n * r
	q, failed := filtered(reps)
	res.failed = failed
	res.problems = append(res.problems, solverInvariants(reps)...)
	res.pivotMin, res.pivotMax = pivotRange(reps)
	res.spreadPct = spreadPct(reps)
	hosts := make([]float64, r)
	for i, rs := range reps {
		res.replayMs = append(res.replayMs, rs.wall.Seconds()*1e3)
		hosts[i] = rs.hostLevel()
	}
	res.hostFactor = median(hosts)
	res.problems = append(res.problems, fx.oracle(subRNG(seed, wl, streamOracle))...)

	sort.Float64s(q)
	cpu, allocs := math.Inf(1), make([]float64, r)
	for i, rs := range reps {
		cpu = min(cpu, rs.cpu.Seconds()*1e3/hosts[i]/float64(n))
		allocs[i] = float64(rs.allocBytes) / 1024 / float64(n)
	}
	res.set("setup_s", median(setups))
	res.set("ops_per_s", ratio(float64(len(q)), sum(q)/1e3))
	res.set("p50_ms", percentile(q, 0.50))
	res.set("p95_ms", percentile(q, 0.95))
	res.set("cpu_ms_per_op", cpu)
	res.set("alloc_kb_per_op", median(allocs))
	return res, nil
}

// solverInvariants checks the counts that must hold inside timed
// replays: every solve is a warm one.
func solverInvariants(reps []*replayStats) []string {
	var cold, fallbacks int
	for _, rs := range reps {
		cold += rs.delta.solver.ColdSolves
		fallbacks += rs.delta.solver.ColdFallbacks
	}
	var out []string
	if cold != 0 {
		out = append(out, fmt.Sprintf("lp.cold_solves = %d inside timed replays, want 0", cold))
	}
	if fallbacks != 0 {
		out = append(out, fmt.Sprintf("lp.cold_fallbacks = %d inside timed replays, want 0", fallbacks))
	}
	return out
}

func pivotRange(reps []*replayStats) (lo, hi int) {
	lo, hi = reps[0].delta.solver.Pivots, reps[0].delta.solver.Pivots
	for _, rs := range reps {
		lo, hi = min(lo, rs.delta.solver.Pivots), max(hi, rs.delta.solver.Pivots)
	}
	return lo, hi
}
