package service

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// This file is the batched what-if engine: N hypotheticals against
// one warm session in a single call, answered over forked solve
// contexts (core.Model.Fork over lp.Revised.Fork) instead of
// serialized behind the session mutex.
//
// The flow: the body is decoded once (decode.go: one walk, or
// encoding/json for a body the walk does not take); each query's canonical-JSON key — the one the
// single-query endpoint's answer table and in-flight coalescing use —
// is appended from the decoded value (appendWhatIfKey), and identical
// queries are deduped by it. Then validate every distinct query into
// a hypothetical under the session lock, and take the batch's workers
// from the session's pool of idle forks, each brought onto the
// committed state in place (core.Model.Refork) — a fork is allocated
// only when the pool runs short. Then release the lock, fan the
// distinct queries out over the forks, and finally merge every fork's
// solver counters back into the session aggregate and return the
// forks to the pool. A fork answers a query with the body the session
// model does (whatIfOn), from the same committed factorization, so
// which fork a query lands on — fresh or pooled — changes neither its
// answer nor its cost. The session lock is held only for validation
// and for taking and returning forks, never for solving: queries,
// epochs and single what-ifs proceed concurrently with a running
// batch, and the batch's answers are pinned to the committed state
// captured at its start.
//
// Batch reports are lean on purpose — verdict, value and bound, no
// allocation tables — and, like every answer, a pure function of
// (session state, queries), so the HTTP endpoint and cmd/dlsched -batch
// byte-diff clean.

// defaultBatchWorkers is the fork-pool width when the request does
// not set one, and the most idle forks a session keeps between batches.
// Four contexts keep the pool useful on multicore hosts; between commits a
// default-width batch then allocates no fork at all, and after one it
// refreshes the four in place. The idle forks are what a session retains
// for it: ~1 MiB at K = 20, ~4.1 MiB at K = 40. The pool a batch uses is
// additionally capped by the number of distinct queries.
const defaultBatchWorkers = 4

// maxBatchWorkers is the widest fork pool a request may ask for: each
// worker is a goroutine plus a fork (1 061 KiB at K = 40, measured: the
// cloned problem, the scratch set and a private copy of the frozen
// simplex state), of which the session keeps defaultBatchWorkers, and
// `workers` is outside input. A constant, not GOMAXPROCS: the response's
// `workers` and each answer's fork assignment must not depend on the
// host, or cmd/dlsched -batch stops diffing byte for byte against the
// endpoint.
const maxBatchWorkers = 64

// errEmptyBatch rejects batches with nothing to solve.
var errEmptyBatch = clientError{errors.New("batch what-if: queries invalid (empty batch)")}

// WhatIfBatch answers every query in req against the session's
// committed state. Identical queries (same canonical JSON after Relax
// normalization) are solved once and shared, duplicates marked
// Coalesced — the intra-batch analogue of the single-query endpoint's
// in-flight coalescing, using the same key. Any invalid query, or a
// fork pool wider than maxBatchWorkers, fails the whole batch before
// anything is forked or solved, and leaves the session's idle forks as
// they were.
func (s *Session) WhatIfBatch(req *BatchWhatIfRequest) (*BatchWhatIfResponse, error) {
	n := len(req.Queries)
	if n == 0 {
		return nil, errEmptyBatch
	}
	if req.Workers > maxBatchWorkers {
		return nil, clientError{fmt.Errorf("batch what-if: workers %d out of range (at most %d)", req.Workers, maxBatchWorkers)}
	}

	// Dedupe. Every batch query is answered as a relaxation, so Relax
	// is normalized into the key: "relax:true" and an implied relax
	// via bounds are the same solve. The keys are appended end to end
	// and held in one string, which the map's keys slice.
	kp := reportBufs.Get().(*[]byte)
	kb, ends := (*kp)[:0], make([]int, n)
	for i := range req.Queries {
		q := req.Queries[i]
		q.Relax = true
		var ok bool
		kb, ok = appendWhatIfKey(kb, &q)
		if !ok {
			*kp = kb
			reportBufs.Put(kp)
			return nil, fmt.Errorf("batch query %d: %w", i, errNonFiniteQuery)
		}
		ends[i] = len(kb)
	}
	all := string(kb)
	*kp = kb
	reportBufs.Put(kp)
	assign := make([]int, n)
	var firstIdx []int // the distinct queries, by their first index
	keys := make(map[string]int, n)
	start := 0
	for i, end := range ends {
		d, ok := keys[all[start:end]]
		if !ok {
			d = len(firstIdx)
			keys[all[start:end]] = d
			firstIdx = append(firstIdx, i)
		}
		assign[i] = d
		start = end
	}
	nd := len(firstIdx)
	workers := req.Workers
	if workers <= 0 {
		workers = defaultBatchWorkers
	}
	if workers > nd {
		workers = nd
	}

	// Validate every distinct query and take the worker models under
	// the session lock, which the reforks need; the solves run outside
	// it. The committed state loaded under it (never written once
	// published) pins every answer to the state at batch start, whatever
	// the session does concurrently.
	s.mu.Lock()
	c := s.state.Load()
	hyps := make([]hypothetical, nd)
	for d, i := range firstIdx {
		h, err := s.hypotheticalLocked(c, &req.Queries[i])
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("batch query %d: %w", i, err)
		}
		hyps[d] = h
	}
	forks := make([]*core.Model, workers)
	pooled := copy(forks, s.idleForks[max(0, len(s.idleForks)-workers):])
	s.idleForks = s.idleForks[:len(s.idleForks)-pooled]
	for w := range forks {
		var err error
		if w < pooled {
			err = s.model.Refork(forks[w])
		} else {
			forks[w], err = s.model.Fork()
		}
		if err != nil {
			// Refork fails only in the parent's Freeze, before it
			// touches the fork: the pooled forks go back as they were.
			s.idleForks = append(s.idleForks, forks[:pooled]...)
			s.mu.Unlock()
			return nil, fmt.Errorf("batch what-if: fork: %w", err)
		}
	}
	s.mu.Unlock()
	s.whatIfs.Add(uint64(nd))
	s.coalesced.Add(uint64(n - nd))

	// Fan out: worker w answers distinct queries w, w+W, w+2W, … on
	// its own fork.
	type result struct {
		rep *SolveReport
		err error
	}
	results := make([]result, nd)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := w; d < nd; d += workers {
				rep, err := whatIfOn(forks[w], hyps[d], c.pr.Platform, func() (*SolveReport, error) {
					bound, ok, err := forks[w].Solve(c.basis)
					if err != nil {
						return nil, err
					}
					rep := &SolveReport{Heuristic: s.cfg.heur, Objective: s.cfg.objName, Relaxed: true, Epoch: c.epoch}
					if ok {
						rep.Feasible, rep.Value, rep.LPBound = true, bound, bound
					}
					return rep, nil
				})
				results[d] = result{rep, err}
			}
		}(w)
	}
	wg.Wait()

	// Fold each fork's solve activity into the session aggregate, so
	// /stats sees batched work exactly like serialized work, and return
	// the forks to the pool (whose Refork zeroes what was folded).
	s.mu.Lock()
	for _, f := range forks {
		s.model.AbsorbSolverStats(f.SolverStats())
	}
	keep := min(len(forks), defaultBatchWorkers-len(s.idleForks))
	s.idleForks = append(s.idleForks, forks[:max(0, keep)]...)
	s.mu.Unlock()

	for d := range results {
		if results[d].err != nil {
			return nil, fmt.Errorf("batch query %d: %w", firstIdx[d], results[d].err)
		}
	}
	reports := make([]*SolveReport, n)
	seen := make([]bool, nd)
	for i, d := range assign {
		if !seen[d] {
			seen[d] = true
			reports[i] = results[d].rep
			continue
		}
		shared := *results[d].rep
		shared.Coalesced = true
		reports[i] = &shared
	}
	return &BatchWhatIfResponse{Reports: reports, Distinct: nd, Workers: workers, Epoch: c.epoch}, nil
}

// BatchWhatIf runs the batched what-if engine once without a server:
// build the warm session exactly as Batch does, then answer the batch
// against it. cmd/dlsched -batch uses it, so a CLI batch report and a
// POST /sessions/{id}/whatif/batch response for the same platform,
// configuration and queries are byte-identical.
func BatchWhatIf(createReq *CreateSessionRequest, batchReq *BatchWhatIfRequest) (*BatchWhatIfResponse, error) {
	pl, cfg, _, err := decodeCreate(createReq)
	if err != nil {
		return nil, err
	}
	sess, err := newSession(pl, cfg)
	if err != nil {
		return nil, err
	}
	return sess.WhatIfBatch(batchReq)
}
