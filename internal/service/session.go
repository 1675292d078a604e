// Package service implements the warm-model scheduling service: an
// HTTP/JSON layer that keeps persistent, warm-started solver sessions
// resident and answers allocation queries against them online.
//
// The paper's §1 adaptability loop re-solves the steady-state α/β
// program as platform capacities drift; PRs 1–4 made that re-solve
// cheap (one persistent core.Model per platform, every re-solve a
// revised-simplex warm restart from the carried basis, never a matrix
// rebuild). This package is the serving layer on top: a Pool of
// Sessions, each owning one warm model, answering
//
//   - query    — the current allocation and objective: the answer the
//     last commit's solve published, read without the session mutex
//     and never solved again (see committed),
//   - what-if  — temporary speed/gateway/link-budget/β-bound
//     mutations, posed on the model one capacity at a time, answered
//     from the committed factorization, and undone exactly — the model by
//     writing back the committed capacities, the solver by rewinding to
//     the state frozen after the commit (whatIfOn below) — so an answer
//     and its cost depend on the committed state and the request, not
//     on what was asked before; identical concurrent what-ifs are
//     coalesced into one solve,
//   - epoch    — a committed adapt.Perturbation-style capacity
//     update, re-solved warm from the carried basis,
//
// all under a per-session mutex (the model is single-threaded;
// mutations serialize) with lp.Revised.Stats surfaced per session and
// pool-wide so the warm/cold split is observable in production.
//
// What a commit establishes — platform, problem, carried basis, epoch,
// committed answer and commit-dedup record — is one immutable value
// (committed), built whole and published in one store under the mutex
// by creation, RestoreSession and every epoch commit whose solve
// succeeded. A failed commit publishes nothing: only the model is
// returned to the published state. Every reader of the committed state
// (Info, PlatformJSON, a snapshot, a query) loads one pointer and never
// waits for the mutex.
//
// Repeated and concurrent what-ifs meet in one place, the session's
// answerTable: entries keyed by canonical what-if that are either in
// flight (identical what-ifs wait for the one solve and are marked
// Coalesced) or resolved at the committed epoch, stamped under the
// session mutex as the solve finishes (a repeat is a hit, marked
// Cached, served from bytes encoded once). Within a session only a
// commit moves the platform, and every published commit advances the
// epoch, so the epoch names the committed state: an answer resolved
// before a commit can never be looked up after it, and correctness never
// rests on the table's LRU eviction or on the sweep at publish, which
// only reclaim capacity. The committed answer is not in the table: it is
// committed state, so no eviction can send a query to the solver.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/platform"
)

// sessionConfig is the normalized solver configuration of a session.
type sessionConfig struct {
	obj      core.Objective
	objName  string
	heur     string          // wire name, as reports spell it
	name     heuristics.Name // the heuristic heur names
	payoffs  []float64       // nil = all 1
	seed     int64
	maxNodes int
}

// SessionHeuristic is the heuristic a session commits with whose wire
// name, its Name in lower case, is wire, and whether there is one.
func SessionHeuristic(wire string) (heuristics.Name, bool) {
	for _, name := range []heuristics.Name{heuristics.NameLPRG, heuristics.NameLPRR, heuristics.NameLPRREQ, heuristics.NameBnB} {
		if wire == strings.ToLower(string(name)) {
			return name, true
		}
	}
	return "", false
}

// parseConfig normalizes and validates the solver configuration of a
// create request (decodeCreate handles the platform) or a snapshot.
func parseConfig(req *CreateSessionRequest) (sessionConfig, error) {
	cfg := sessionConfig{objName: req.Objective, heur: req.Heuristic, seed: req.Seed, maxNodes: req.MaxNodes, payoffs: req.Payoffs}
	if cfg.objName == "" {
		cfg.objName = "maxmin"
	}
	if cfg.heur == "" {
		cfg.heur = "lprg"
	}
	var err error
	if cfg.obj, err = core.ParseObjective(cfg.objName); err != nil {
		return cfg, clientError{err}
	}
	var ok bool
	if cfg.name, ok = SessionHeuristic(cfg.heur); !ok {
		return cfg, clientError{fmt.Errorf("unknown heuristic %q (want lprg, lprr, lprr-eq or bnb)", req.Heuristic)}
	}
	return cfg, nil
}

// decodeCreate turns a create request into what a session is built
// from and filed under: the decoded, strictly validated platform, the
// normalized configuration, and the pool key the two digest to.
func decodeCreate(req *CreateSessionRequest) (*platform.Platform, sessionConfig, string, error) {
	cfg, err := parseConfig(req)
	if err != nil {
		return nil, cfg, "", err
	}
	if len(req.Platform) == 0 {
		return nil, cfg, "", clientError{errors.New("missing platform")}
	}
	pl, err := platform.Decode(req.Platform)
	if err != nil {
		return nil, cfg, "", clientError{err}
	}
	return pl, cfg, sessionID(pl.Fingerprint(), cfg), nil
}

// sessionID digests the platform fingerprint and the solver
// configuration into the pool key: same platform + same configuration
// lands on the same warm session.
func sessionID(fp string, cfg sessionConfig) string {
	h := sha256.New()
	h.Write([]byte(fp))
	h.Write([]byte{0})
	h.Write([]byte(cfg.objName))
	h.Write([]byte{0})
	h.Write([]byte(cfg.heur))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(cfg.seed))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(cfg.maxNodes)))
	h.Write(buf[:])
	for _, p := range cfg.payoffs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// commitDedupDepth bounds each session's record of recently applied
// tagged commits. A retry only needs its original to still be on
// record; the depth covers the plausible number of distinct clients
// interleaving commits on one session within a retry window.
const commitDedupDepth = 8

// commitRecord is one applied tagged commit: the idempotency ID and the
// report it answered with, in json.Marshal's bytes — the commit's
// response body with its whitespace stripped (compactReport), or the
// bytes a snapshot carried. A retry decodes them, and every snapshot
// appends them. A report with no JSON form has nil wire: its retry
// answers errNonFinite again, and it has no place in a snapshot.
type commitRecord struct {
	id   string
	wire []byte
}

// committed is one committed state of a session: what the last commit
// solve established. It is built whole, published once (publishLocked)
// and never written after, so a reader holding it needs no lock, and a
// commit that fails leaves the published value in place untouched.
type committed struct {
	pr    *core.Problem // its Platform is the current (drifted) platform
	basis *lp.Basis     // root basis the next commit solve starts from
	epoch int

	// answer is the committed answer, read by every query as a cache
	// hit's entry: its wire image is the query's body. recorded says it is
	// the newest entry of records, which a snapshot then carries once.
	answer   *answer
	recorded bool

	// records holds the most recently applied tagged epoch commits,
	// newest last (the cluster router tags every commit with an
	// idempotency ID). A retry carrying a recorded ID returns the
	// recorded report instead of applying the perturbation again — the
	// commit-retry safety net for responses lost mid-flight. The record
	// travels in snapshots, so it survives failover to a promoted
	// replica. It is commitDedupDepth deep, not one-deep, because
	// distinct clients' commits to one session are not serialized: if
	// client A's applied commit loses its response and client B's
	// commit lands before A retries, A's ID must still be on record or
	// the retry would re-apply it.
	records []commitRecord
}

// lookup finds the recorded report bytes of an applied tagged commit;
// newest-first, since a retry is almost always of the latest.
func (c *committed) lookup(commitID string) ([]byte, bool) {
	for i := len(c.records) - 1; i >= 0; i-- {
		if c.records[i].id == commitID {
			return c.records[i].wire, true
		}
	}
	return nil, false
}

// withRecord returns records with rec appended and the oldest entries
// past commitDedupDepth dropped, in a new array: a published record is
// never written.
func withRecord(records []commitRecord, rec commitRecord) []commitRecord {
	keep := records[max(0, len(records)-commitDedupDepth+1):]
	return append(keep[:len(keep):len(keep)], rec)
}

// newAnswer is the committed answer for rep. body, when the commit
// encoded one, is rep as EncodeReport writes it, and the answer's wire
// image is built from it (cachedImage) rather than encoded again on the
// first query.
func newAnswer(rep *SolveReport, body *[]byte) *answer {
	a := &answer{rep: *rep}
	if body != nil {
		a.once.Do(func() { a.image = cachedImage(*body) })
	}
	return a
}

// Session owns one warm solver model for one (platform,
// configuration) pair. All model access is serialized by mu; the
// committed state is the value published in state, which only a holder
// of mu replaces. The
// published platform is the only holder of the committed capacities:
// outside a what-if the model holds exactly what model.Inject(pl) wrote
// and default β bounds, so a what-if poses its hypothetical under mu and
// retracts it by writing pl's value back at every capacity it wrote
// before releasing it; the solver it rewinds to the factorization the
// last commit left (whatIfOn).
type Session struct {
	id          string
	fingerprint string
	cfg         sessionConfig
	rows, cols  int // the model's constraint rows and solver columns

	// created is the platform description the session was created for,
	// as platform JSON: encoded once at creation, or the bytes a snapshot
	// carried. Every snapshot carries these bytes and the committed
	// capacities over them (cluster.SessionSnapshot.AppendCapacities).
	created []byte

	// state is the published committed state; see committed.
	state atomic.Pointer[committed]

	mu    sync.Mutex
	model *core.Model

	// idleForks holds up to defaultBatchWorkers forks of model between
	// batches, each retracted and rewound; a batch reforks them onto the
	// committed state instead of allocating (see batch.go).
	idleForks []*core.Model

	// tables is the frozen relaxed answer's encoded tables, which every
	// relaxed what-if told as a diff is spliced from: built on the first
	// such what-if after each Freeze, never by a commit. Guarded by mu.
	tables *tableBody

	whatIfs   atomic.Uint64
	coalesced atomic.Uint64
	epochs    atomic.Uint64

	// answers memoizes and coalesces what-ifs under (committed epoch,
	// canonical what-if key); see answerTable, whose epoch is rotated
	// under mu when a commit is published. Because the epoch strictly
	// increases, a stale hit after a commit is impossible even before
	// the sweep.
	answers *answerTable

	// shipMu orders the saves of this session's snapshots (Node.ship,
	// which runs outside mu from a commit and from PersistAll): shipped
	// is the highest epoch one was saved or sent at, and no older one is
	// saved or sent after it.
	shipMu  sync.Mutex
	shipped int

	// onCommit, when set (by the pool's session hook), runs after
	// every committed state change — creation and epoch commits —
	// outside the session mutex. The cluster layer uses it to persist
	// a fresh snapshot.
	onCommit func(*Session)
}

// buildSession assembles a session's model and bookkeeping over pl, the
// committed platform, and returns them with pl's problem, without
// solving or publishing anything — the shared half of newSession (which
// follows with the initial cold commit solve) and RestoreSession (which
// installs a snapshot's basis and solves its root warm instead). fp is the
// fingerprint of the platform the session was created for, which with
// cfg names the session.
func buildSession(pl *platform.Platform, cfg sessionConfig, fp string) (*Session, *core.Problem, error) {
	pr := core.NewProblem(pl)
	if cfg.payoffs != nil {
		pr.Payoffs = slices.Clone(cfg.payoffs)
	}
	model, err := pr.NewModel(cfg.obj)
	if err != nil {
		return nil, nil, clientError{err} // NewModel refuses only a problem that fails validation
	}
	s := &Session{
		id:          sessionID(fp, cfg),
		fingerprint: fp,
		cfg:         cfg,
		rows:        model.Rows(),
		cols:        model.SolverCols(),
		model:       model,
		answers:     newAnswerTable(),
	}
	return s, pr, nil
}

// newSession validates the platform, builds the warm model and runs
// the initial (cold) commit solve, which establishes the carried basis
// and publishes the committed answer. Every later solve on the session
// is a warm restart. The platform is encoded here, once: every snapshot
// the session seals carries these bytes.
func newSession(pl *platform.Platform, cfg sessionConfig) (*Session, error) {
	created, err := json.Marshal(pl)
	if err != nil {
		return nil, clientError{err}
	}
	s, pr, err := buildSession(pl, cfg, pl.Fingerprint())
	if err != nil {
		return nil, err
	}
	s.created = created
	// unshared: "locked" trivially holds
	rep, basis, err := s.commitLocked(pr, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("initial solve: %w", err)
	}
	s.publishLocked(&committed{pr: pr, basis: basis, answer: newAnswer(rep, nil)})
	return s, nil
}

// Info describes the session at its committed state.
func (s *Session) Info() SessionInfo {
	c := s.state.Load()
	return SessionInfo{
		ID:          s.id,
		Fingerprint: s.fingerprint,
		K:           c.pr.Platform.K(),
		Routers:     c.pr.Platform.Routers,
		Links:       len(c.pr.Platform.Links),
		Rows:        s.rows,
		Objective:   s.cfg.objName,
		Heuristic:   s.cfg.heur,
		Epoch:       c.epoch,
	}
}

// PlatformJSON returns the session's current (drifted) platform
// description.
func (s *Session) PlatformJSON() ([]byte, error) { return s.state.Load().pr.Platform.Encode() }

// Stats snapshots the session's activity and solver counters, and —
// in the same critical section — the warm pivot budget the health
// conditions are judged from, so one /stats, /metrics or /healthz
// scrape takes the session mutex once.
func (s *Session) Stats() SessionStats {
	st := SessionStats{SessionInfo: s.Info()}
	s.mu.Lock()
	st.Solver, st.warmPivotBudget = s.model.SolverStats(), s.model.WarmPivotBudget()
	s.mu.Unlock()
	st.WhatIfs = s.whatIfs.Load()
	st.CoalescedWhatIfs = s.coalesced.Load()
	st.Epochs = s.epochs.Load()
	st.CacheHits, st.CacheMisses = s.answers.counters()
	return st
}

// Query answers the committed state: the heuristic allocation and
// objective on the session's current platform, as the last commit
// solve published them, with Cached set. It never solves.
func (s *Session) Query() (*SolveReport, error) { return asReport(s.query()) }

// asReport turns an HTTP-layer answer into the exported API's: a cache
// hit becomes a copy of its report with Cached set, and a report told as
// a diff a copy with its tables written out (dense).
func asReport(rep *SolveReport, hit *answer, err error) (*SolveReport, error) {
	if hit != nil {
		return hit.report().dense(), nil
	}
	return rep.dense(), err
}

// query is Query as the HTTP layer consumes it: the committed answer,
// whose wire image is the response, comes back as a hit. It reads one
// pointer and never reaches the solver; it counts as an answer-table
// hit, which is what it is.
func (s *Session) query() (*SolveReport, *answer, error) {
	s.answers.countHit()
	return nil, s.state.Load().answer, nil
}

// publishLocked makes c the committed state, in one store, and rotates
// the answer table to its epoch.
func (s *Session) publishLocked(c *committed) {
	s.state.Store(c)
	s.answers.rotate(c.epoch)
}

// commitLocked is the commit solve that creation and every epoch commit
// share: the heuristic on pr, the problem the model holds, from the root
// solved warm from the basis from, reported at epoch with the root's
// bound and basis — so it answers what the what-if {} answers. The root
// is held, so a heuristic that pins leaves the model frozen on it. It
// writes no session field: its caller publishes what it returns, or
// returns the model to the published state.
func (s *Session) commitLocked(pr *core.Problem, from *lp.Basis, epoch int) (*SolveReport, *lp.Basis, error) {
	rel, err := s.rootLocked(from)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.run(pr, rel.Hold())
	if err != nil {
		return nil, nil, err
	}
	rep, err := HeuristicReport(s.cfg.heur, s.cfg.objName, pr, res, rel.Objective, epoch)
	return rep, rel.Root, err
}

// rootLocked is the one root solve of a commit, RestoreSession and a
// failed commit's rollback: Rebase, then the unpinned relaxation warm
// from the basis from (cold when nil), returned by value to stay on the
// stack.
//
// Committed answers must be replica-independent: a session promoted
// from a snapshot on a successor holds the same matrix, capacities and
// basis as the dead owner's live session did, but not its accumulated
// solver internals (sign normalization, eta-file factors, pricing
// weights), and on degenerate platforms those pick the optimal vertex —
// so the heuristic's tie-breaks, and therefore the committed Value,
// would drift across a failover. Rebase drops the history so this solve
// is a pure function of the committed discrete state on every replica.
// A what-if needs no rebase: it starts from the factorization this
// solve leaves, and is rewound to it.
func (s *Session) rootLocked(from *lp.Basis) (heuristics.Relaxation, error) {
	s.model.Rebase()
	rel, err := heuristics.RelaxOn(s.model, from)
	if err != nil {
		return heuristics.Relaxation{}, err
	}
	return *rel, nil
}

// run runs the session's heuristic on pr from rel. The randomized
// heuristics reseed from the session seed on every run, so answers are
// deterministic and equal to a batch run with the same seed.
func (s *Session) run(pr *core.Problem, rel *heuristics.Relaxation) (heuristics.Result, error) {
	var rng *rand.Rand
	if s.cfg.name.Randomized() {
		rng = rand.New(rand.NewSource(s.cfg.seed))
	}
	return heuristics.Run(s.cfg.name, pr, rel, rng, s.cfg.maxNodes)
}

// HeuristicReport checks the allocation of heuristic run res (heur, its
// wire name) against pr and reports it under the named objective with
// the relaxation bound, at epoch: the answer of a session's commit and
// heuristic what-if, and of dlsched's model-free heuristics.
func HeuristicReport(heur, objective string, pr *core.Problem, res heuristics.Result, bound float64, epoch int) (*SolveReport, error) {
	if err := pr.CheckAllocation(res.Alloc, core.DefaultTol); err != nil {
		return nil, fmt.Errorf("internal error: heuristic produced an invalid allocation: %w", err)
	}
	K := pr.K()
	rep := &SolveReport{
		Heuristic:   heur,
		Objective:   objective,
		Feasible:    true,
		Value:       res.Value,
		LPBound:     bound,
		Alpha:       res.Alloc.Alpha,
		Beta:        res.Alloc.Beta,
		Throughputs: make([]float64, K),
		Epoch:       epoch,
	}
	for k := 0; k < K; k++ {
		rep.Throughputs[k] = res.Alloc.AppThroughput(k)
	}
	return rep, nil
}

// relaxReportLocked assembles a relaxation-answer SolveReport at epoch
// around the model's last relaxed optimum (β̃ fractional), or the bare
// infeasible verdict when the hypothetical left none. An optimum the
// model tells as the frozen one plus what moved (core.Model.Diff) keeps
// just that: its body is spliced from the frozen answer's encoded
// tables, and only the α rows with a moved cell are summed anew.
func (s *Session) relaxReportLocked(epoch int) *SolveReport {
	rep := &SolveReport{
		Heuristic: s.cfg.heur,
		Objective: s.cfg.objName,
		Relaxed:   true,
		Epoch:     epoch,
	}
	if d, ok := s.model.Diff(); ok {
		if s.tables == nil || s.tables.sol != d.Base {
			s.tables = newTableBody(d.Base)
		}
		d.Cells, d.Values = slices.Clone(d.Cells), slices.Clone(d.Values)
		rep.diff = &tableDiff{body: s.tables, Diff: d}
		rep.Feasible = true
		rep.Value, rep.LPBound = d.Objective, d.Objective
		rep.Throughputs = rep.diff.throughputs()
		return rep
	}
	sol := s.model.Solution()
	if sol == nil {
		return rep
	}
	rep.Feasible = true
	rep.Value, rep.LPBound = sol.Objective, sol.Objective
	rep.Alpha, rep.BetaFrac = sol.Alpha, sol.Beta
	rep.Throughputs = throughputs(sol.Alpha)
	return rep
}

// throughputs sums each application's row of α̃, in column order.
func throughputs(alpha [][]float64) []float64 {
	out := make([]float64, len(alpha))
	for k, row := range alpha {
		for _, a := range row {
			out[k] += a
		}
	}
	return out
}

// WhatIf answers a hypothetical without committing it. A repeat of an
// identical what-if against an unchanged committed state is an
// answer-cache hit (Cached=true, no solve at all — what-ifs roll back
// exactly, so the same request against the same committed state is
// the same answer). Identical *concurrent* requests (same canonical
// JSON) coalesce onto one solve; every caller gets the shared report
// (waiters see Coalesced=true). A request with Bounds comes back marked
// Relax, which Bounds imply.
func (s *Session) WhatIf(req *WhatIfRequest) (*SolveReport, error) { return asReport(s.whatIf(req)) }

// whatIf is WhatIf as the HTTP layer consumes it: a cache hit comes back
// as its entry, whose wire image is the response. The owner of a flight
// answers the hypothetical on the session model (whatIfOn) before
// releasing the session; a heuristic what-if reports the bound of the
// relaxation its heuristic started from, as a commit does, and it is
// not held: whatIfOn holds the committed state frozen and rewinds the
// solver past its solves.
// The answer is resolved under the committed epoch while mu is still
// held, so it can never be filed against a state other than the one it
// was computed on.
func (s *Session) whatIf(req *WhatIfRequest) (*SolveReport, *answer, error) {
	if len(req.Bounds) > 0 {
		// Bounds imply a relaxation: say so, so both spellings of one key
		// alike — one cache entry and one flight, as in a batch.
		req.Relax = true
	}
	kp := reportBufs.Get().(*[]byte)
	var ok bool
	*kp, ok = appendWhatIfKey((*kp)[:0], req)
	if !ok {
		reportBufs.Put(kp)
		return nil, nil, errNonFiniteQuery
	}
	a, hit, owner := s.answers.claim(*kp)
	reportBufs.Put(kp)
	if hit {
		s.whatIfs.Add(1)
		return nil, a, nil
	}
	if !owner {
		<-a.done
		s.coalesced.Add(1)
		if a.err != nil {
			return nil, nil, a.err
		}
		shared := a.rep
		shared.Coalesced = true
		return &shared, nil, nil
	}
	s.whatIfs.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep *SolveReport
	c := s.state.Load()
	h, err := s.hypotheticalLocked(c, req)
	if err == nil {
		rep, err = whatIfOn(s.model, h, c.pr.Platform, func() (*SolveReport, error) {
			if !req.Relax {
				epr := &core.Problem{Platform: h.platform(c.pr.Platform), Payoffs: c.pr.Payoffs}
				rel, err := heuristics.RelaxOn(s.model, c.basis)
				if err != nil {
					return nil, err
				}
				res, err := s.run(epr, rel)
				if err != nil {
					return nil, err
				}
				return HeuristicReport(s.cfg.heur, s.cfg.objName, epr, res, rel.Objective, c.epoch)
			}
			if _, _, err := s.model.Solve(c.basis); err != nil {
				return nil, err
			}
			return s.relaxReportLocked(c.epoch), nil
		})
	}
	s.answers.resolve(a, rep, err)
	return rep, nil, err
}

// whatIfOn is the one what-if body: it poses h on m — the session model
// under mu, or a batch's fork of it — runs extract, which solves and
// reads out what its caller reports (the heuristic answer, the relaxed
// tables, or the bare bound), then retracts to the committed platform
// and rewinds the solver to the committed factorization, frozen here on
// the first what-if after a commit (a fork is born or reforked frozen),
// which also leaves a pooled fork ready for its next Refork. Both halves
// of m therefore end where they started: what extract returns, and what
// it costs, is a function of the committed state and h alone.
func whatIfOn(m *core.Model, h hypothetical, committed *platform.Platform, extract func() (*SolveReport, error)) (*SolveReport, error) {
	if err := m.Freeze(); err != nil {
		return nil, err
	}
	defer func() {
		retract(m, h, committed)
		m.Rewind()
	}()
	if err := pose(m, h); err != nil {
		return nil, err
	}
	return extract()
}

// hypothetical is one validated what-if: the request's capacity
// mutations and the β boxes it installs over the default bounds. Every
// index, value and "route has a β variable" check is made while building
// it, so posing one cannot fail half-way. It holds no platform: pose and
// retract write only the capacities it lists, and a heuristic what-if,
// which evaluates residual capacities against the hypothetical platform,
// builds that (platform).
type hypothetical struct {
	speeds, gateways []ClusterValue
	links            []LinkValue
	boxes            []RouteBounds
}

// platform is the committed platform with h's capacity mutations.
func (h hypothetical) platform(committed *platform.Platform) *platform.Platform {
	pl := committed.Clone()
	for _, m := range h.speeds {
		pl.Clusters[m.Cluster].Speed = m.Value
	}
	for _, m := range h.gateways {
		pl.Clusters[m.Cluster].Gateway = m.Value
	}
	for _, m := range h.links {
		pl.Links[m.Link].MaxConnect = int(m.MaxConnect)
	}
	return pl
}

// hypotheticalLocked validates req against the committed state c and
// the model; what it refuses is the client's fault.
func (s *Session) hypotheticalLocked(c *committed, req *WhatIfRequest) (hypothetical, error) {
	h := hypothetical{speeds: req.Speeds, gateways: req.Gateways, links: req.Links, boxes: req.Bounds}
	K := c.pr.Platform.K()
	for _, m := range req.Speeds {
		if m.Cluster < 0 || m.Cluster >= K {
			return hypothetical{}, clientError{fmt.Errorf("speed mutation: cluster %d out of range [0,%d)", m.Cluster, K)}
		}
	}
	for _, m := range req.Gateways {
		if m.Cluster < 0 || m.Cluster >= K {
			return hypothetical{}, clientError{fmt.Errorf("gateway mutation: cluster %d out of range [0,%d)", m.Cluster, K)}
		}
	}
	for _, m := range req.Links {
		if m.Link < 0 || m.Link >= len(c.pr.Platform.Links) {
			return hypothetical{}, clientError{fmt.Errorf("link mutation: link %d out of range [0,%d)", m.Link, len(c.pr.Platform.Links))}
		}
		// Refused before any conversion to int, which is
		// implementation-defined out of range; NaN fails the first test.
		if !(m.MaxConnect >= 0 && m.MaxConnect <= platform.MaxConnectCeiling) || m.MaxConnect != math.Trunc(m.MaxConnect) {
			return hypothetical{}, clientError{fmt.Errorf("link mutation: max-connect %g invalid (budgets are whole connection counts, at most %d)", m.MaxConnect, platform.MaxConnectCeiling)}
		}
	}
	// A negative, NaN or infinite capacity, or speeds whose sum may pass
	// core.MaxScale (it is at most the committed sum plus every speed
	// written), make it validate the hypothetical problem, so a rejected
	// request gets that error.
	payoff, speed := c.pr.Scale()
	refused := false
	for _, m := range req.Gateways {
		refused = refused || !(m.Value >= 0) || math.IsInf(m.Value, 1)
	}
	for _, m := range req.Speeds {
		refused, speed = refused || !(m.Value >= 0), speed+m.Value
	}
	if refused || !(payoff*speed <= core.MaxScale) {
		if err := (&core.Problem{Platform: h.platform(c.pr.Platform), Payoffs: c.pr.Payoffs}).Validate(); err != nil {
			return hypothetical{}, clientError{err}
		}
	}
	for _, b := range req.Bounds {
		if b.Lb < 0 || math.IsNaN(b.Lb) || math.IsInf(b.Lb, 0) {
			return hypothetical{}, clientError{fmt.Errorf("bound mutation (%d,%d): lb %g invalid", b.From, b.To, b.Lb)}
		}
		if math.IsNaN(b.Ub) || math.IsInf(b.Ub, 0) {
			return hypothetical{}, clientError{fmt.Errorf("bound mutation (%d,%d): ub %g invalid", b.From, b.To, b.Ub)}
		}
		if !s.model.HasBeta(core.Pair{K: b.From, L: b.To}) {
			return hypothetical{}, clientError{fmt.Errorf("β bounds on route (%d,%d) with no β variable", b.From, b.To)}
		}
	}
	return h, nil
}

// pose writes h into m — the session model, or a fork of it, holding the
// committed state: each capacity h lists, in request order (the last
// write to a capacity wins, as in the hypothetical platform), then h's
// boxes over the default β bounds. Whatever h does not list already
// holds its committed value.
func pose(m *core.Model, h hypothetical) error {
	for _, c := range h.speeds {
		if err := m.SetSpeed(c.Cluster, c.Value); err != nil {
			return err
		}
	}
	for _, c := range h.gateways {
		if err := m.SetGateway(c.Cluster, c.Value); err != nil {
			return err
		}
	}
	for _, l := range h.links {
		if err := m.SetLinkBudget(l.Link, l.MaxConnect); err != nil {
			return err
		}
	}
	for _, b := range h.boxes {
		if err := m.SetBounds(core.Pair{K: b.From, L: b.To}, core.BetaBounds{Lb: b.Lb, Ub: b.Ub}); err != nil {
			return err
		}
	}
	return nil
}

// retract returns m to the committed state after a pose of h, complete
// or abandoned half-way: the committed platform's value at every
// capacity h lists, and default β bounds (clearing h's boxes and
// whatever pins or node bounds a heuristic left). The model keeps no
// history (see core.Model), so m ends bit-equal to one that only ever saw
// the committed platform. Those values were written before: a failure
// here is a bug, and leaves the model unusable.
func retract(m *core.Model, h hypothetical, committed *platform.Platform) {
	for _, c := range h.speeds {
		mustRestore(m.SetSpeed(c.Cluster, committed.Clusters[c.Cluster].Speed))
	}
	for _, c := range h.gateways {
		mustRestore(m.SetGateway(c.Cluster, committed.Clusters[c.Cluster].Gateway))
	}
	for _, l := range h.links {
		mustRestore(m.SetLinkBudget(l.Link, float64(committed.Links[l.Link].MaxConnect)))
	}
	m.ResetBounds()
}

func mustRestore(err error) {
	if err != nil {
		panic(fmt.Sprintf("service: restoring the committed platform: %v", err))
	}
}

// EpochIdempotent commits a capacity update: the perturbation factors
// apply to the session's current platform (drift accumulates), the new
// capacities are injected into the model as RHS/bound mutations, and
// the commit solve re-solves warm from the carried basis. Its result is
// published as the new committed state, whose epoch the answer table is
// rotated to — a post-commit read can only ever see a post-commit
// answer — and the commit hook (snapshot persistence) runs outside the
// session mutex. A commit whose solve fails publishes nothing
// (epochLocked): the session stays at the state before it, and nothing
// is recorded or shipped.
//
// A non-empty commitID is an idempotency tag: one matching a recently
// applied commit returns the recorded report without touching the
// model, so the cluster router can retry a commit whose response was
// lost without ever double-applying its perturbation — even when other
// clients' commits landed in between. An empty commitID is a plain
// (untagged) commit.
func (s *Session) EpochIdempotent(req *EpochRequest, commitID string) (*SolveReport, error) {
	rep, body, err := s.commitEpoch(req, commitID, false)
	if body != nil {
		reportBufs.Put(body)
	}
	return rep, err
}

// commitEpoch is EpochIdempotent as the HTTP layer consumes it (wantBody):
// a commit it applies comes back with its response body, EncodeReport's
// bytes in a reportBufs buffer the caller puts back. The body is encoded
// once, under the session mutex, and a tagged commit's record keeps it
// with its structural whitespace stripped — json.Marshal's bytes — which
// is also the committed answer a snapshot carries; so a tagged commit
// encodes its body whether or not the caller wants it, and an untagged
// one only when asked. A retry answered from the record, or a report the
// encoder cannot write, comes back with a nil body.
func (s *Session) commitEpoch(req *EpochRequest, commitID string, wantBody bool) (*SolveReport, *[]byte, error) {
	s.mu.Lock()
	c := s.state.Load()
	if commitID != "" {
		if wire, ok := c.lookup(commitID); ok {
			s.mu.Unlock()
			if wire == nil {
				return nil, nil, errNonFinite
			}
			var rep SolveReport
			if err := json.Unmarshal(wire, &rep); err != nil {
				return nil, nil, fmt.Errorf("recorded commit %s: %w", commitID, err)
			}
			return &rep, nil, nil
		}
	}
	s.epochs.Add(1)
	next, rep, err := s.epochLocked(c, req)
	var body *[]byte
	if err == nil {
		if wantBody || commitID != "" {
			bp, ok := reportBytes(rep)
			if ok {
				body = bp
			} else {
				reportBufs.Put(bp)
			}
		}
		if commitID != "" {
			var wire []byte
			if body != nil {
				wire = compactReport(*body)
			}
			next.records, next.recorded = withRecord(c.records, commitRecord{id: commitID, wire: wire}), wire != nil
		}
		next.answer = newAnswer(rep, body)
		s.publishLocked(next)
	}
	hook := s.onCommit
	s.mu.Unlock()
	if err == nil && hook != nil {
		hook(s)
	}
	return rep, body, err
}

// epochLocked applies req to c, the published state, and runs the commit
// solve on the result, returning the state it establishes, less its
// answer, and the report for its caller to publish. A commit whose
// solve fails — a bnb search out of its node budget, say — publishes
// nothing, so c stays the committed state; only the model is returned
// to it: c's capacities injected again and its root solved from c's
// basis, so the solver stands on that basis's factorization as it
// did after the last commit. A retry then applies the perturbation to
// the same platform, not on top of it.
func (s *Session) epochLocked(c *committed, req *EpochRequest) (*committed, *SolveReport, error) {
	pert := adapt.Perturbation{
		GatewayFactor: req.GatewayFactor,
		SpeedFactor:   req.SpeedFactor,
		LinkFactor:    req.LinkFactor,
	}
	epl, err := pert.Apply(c.pr.Platform)
	if err != nil {
		return nil, nil, clientError{err}
	}
	epr := &core.Problem{Platform: epl, Payoffs: c.pr.Payoffs}
	if err := epr.Validate(); err != nil {
		return nil, nil, clientError{fmt.Errorf("perturbed problem invalid: %w", err)}
	}
	// A failed injection (e.g. a factor driving a capacity out of
	// range) must not leave the model half-updated: return it to the
	// committed state and report.
	if err := s.model.Inject(epl); err != nil {
		mustRestore(s.model.Inject(c.pr.Platform))
		return nil, nil, clientError{err}
	}
	rep, basis, err := s.commitLocked(epr, c.basis, c.epoch+1)
	if err != nil {
		mustRestore(s.model.Inject(c.pr.Platform))
		if _, serr := s.rootLocked(c.basis); serr != nil {
			mustRestore(serr)
		}
		return nil, nil, err
	}
	return &committed{pr: epr, basis: basis, epoch: c.epoch + 1, records: c.records}, rep, nil
}
