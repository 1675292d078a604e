package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"

	"repro/internal/platform"
	"repro/internal/service"
)

// The oracle runs after the timed replays, untimed. (The replays
// themselves already checked that every response repeats replay 0's
// stable part byte for byte, and that no solve inside them was cold.)
// It re-answers seeded sample ops from scratch: a cold service.Batch
// on the hypothetical or drifted platform must give the same LP bound
// as the warm service did, and a batch report must equal the single
// what-if answer.

// oracleSamples is how many ops per workload are re-answered cold.
const oracleSamples = 16

// boundTol is the warm == cold contract on LP optima.
const boundTol = 1e-9

func agree(a, b float64) bool { return math.Abs(a-b) <= boundTol*(1+math.Abs(b)) }

// coldBound solves pl from scratch with the session's configuration
// and returns the relaxation optimum.
func coldBound(s *session, pl *platform.Platform) (float64, error) {
	plJSON, err := pl.Encode()
	if err != nil {
		return 0, err
	}
	rep, err := service.Batch(&service.CreateSessionRequest{
		Platform: plJSON, Objective: "maxmin", Heuristic: "lprg", Payoffs: s.payoffs,
	})
	if err != nil {
		return 0, err
	}
	return rep.LPBound, nil
}

// hypothetical is s's platform with q's capacity mutations applied; ok
// is false when q also boxes a β, which no platform expresses.
func hypothetical(s *session, q *service.WhatIfRequest) (pl *platform.Platform, ok bool) {
	if q != nil && len(q.Bounds) > 0 {
		return nil, false
	}
	pl = s.pl.Clone()
	if q == nil {
		return pl, true
	}
	for _, m := range q.Speeds {
		pl.Clusters[m.Cluster].Speed = m.Value
	}
	for _, m := range q.Gateways {
		pl.Clusters[m.Cluster].Gateway = m.Value
	}
	for _, m := range q.Links {
		pl.Links[m.Link].MaxConnect = int(m.MaxConnect)
	}
	return pl, true
}

// oracle dispatches on the shape of the workload's ops and returns one
// line per disagreement.
func (fx *fixture) oracle(rng *rand.Rand) []string {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fx.wl.name+": "+fmt.Sprintf(format, args...))
	}
	if err := fx.reset(0); err != nil {
		fail("oracle: %v", err)
		return problems
	}
	samples := map[int]bool{}
	for _, i := range rng.Perm(len(fx.ops)) {
		if len(samples) == oracleSamples {
			break
		}
		rq := &fx.ops[i].reqs[0]
		if _, ok := hypothetical(rq.sess, rq.whatIf); ok {
			samples[i] = true
		}
	}
	for i := range fx.ops {
		rq := &fx.ops[i].reqs[0]
		switch {
		case rq.kind == kindEpoch:
			// Every round must be applied to reach the sampled states.
			var rep service.SolveReport
			if err := fx.call(rq.node, rq.method, rq.path, rq.body, &rep); err != nil {
				fail("op %d: %v", i, err)
				return problems
			}
			if !samples[i] {
				continue
			}
			if _, _, ok, err := fx.send(&request{node: rq.node, method: http.MethodGet, path: "/sessions/" + rq.sess.id + "/platform"}); err != nil || !ok {
				fail("op %d: reading drifted platform: ok=%v err=%v", i, ok, err)
				continue
			}
			drifted, err := platform.Decode(fx.buf.Bytes())
			if err != nil {
				fail("op %d: %v", i, err)
				continue
			}
			if cold, err := coldBound(rq.sess, drifted); err != nil {
				fail("op %d: cold solve: %v", i, err)
			} else if !agree(rep.LPBound, cold) {
				fail("op %d: committed lpBound %.12g, cold %.12g", i, rep.LPBound, cold)
			}
		case !samples[i]:
		case rq.kind == kindBatch:
			fx.checkBatch(i, rq, rng, fail)
		default:
			var rep service.SolveReport
			if err := fx.call(rq.node, rq.method, rq.path, rq.body, &rep); err != nil {
				fail("op %d: %v", i, err)
				continue
			}
			pl, _ := hypothetical(rq.sess, rq.whatIf)
			if cold, err := coldBound(rq.sess, pl); err != nil {
				fail("op %d: cold solve: %v", i, err)
			} else if !agree(rep.LPBound, cold) {
				fail("op %d: warm lpBound %.12g, cold %.12g", i, rep.LPBound, cold)
			}
		}
	}
	return problems
}

// checkBatch re-sends batch op i, answers each of its queries through
// the single what-if endpoint and requires the same verdict and bound,
// then re-answers one seeded β-free query cold.
func (fx *fixture) checkBatch(i int, rq *request, rng *rand.Rand, fail func(string, ...any)) {
	var resp service.BatchWhatIfResponse
	if err := fx.call(rq.node, rq.method, rq.path, rq.body, &resp); err != nil {
		fail("op %d: %v", i, err)
		return
	}
	if len(resp.Reports) != len(rq.batch.Queries) || resp.Distinct != batchDistinct {
		fail("op %d: %d reports, %d distinct; want %d and %d", i, len(resp.Reports), resp.Distinct, len(rq.batch.Queries), batchDistinct)
		return
	}
	single := map[string]*service.SolveReport{}
	for j := range rq.batch.Queries {
		body, err := json.Marshal(&rq.batch.Queries[j])
		if err != nil {
			fail("op %d query %d: %v", i, j, err)
			return
		}
		rep := single[string(body)]
		if rep == nil {
			rep = new(service.SolveReport)
			if err := fx.call(rq.node, http.MethodPost, "/sessions/"+rq.sess.id+"/whatif", body, rep); err != nil {
				fail("op %d query %d: %v", i, j, err)
				return
			}
			single[string(body)] = rep
		}
		if got := resp.Reports[j]; got.Feasible != rep.Feasible || !agree(got.LPBound, rep.LPBound) {
			fail("op %d query %d: batch (feasible=%v lpBound=%.12g) != single what-if (feasible=%v lpBound=%.12g)",
				i, j, got.Feasible, got.LPBound, rep.Feasible, rep.LPBound)
		}
	}
	for _, j := range rng.Perm(len(rq.batch.Queries)) {
		pl, ok := hypothetical(rq.sess, &rq.batch.Queries[j])
		if !ok {
			continue
		}
		if cold, err := coldBound(rq.sess, pl); err != nil {
			fail("op %d query %d: cold solve: %v", i, j, err)
		} else if !agree(resp.Reports[j].LPBound, cold) {
			fail("op %d query %d: batch lpBound %.12g, cold %.12g", i, j, resp.Reports[j].LPBound, cold)
		}
		return
	}
}
