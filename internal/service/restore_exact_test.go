package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/platgen"
)

// TestRestoreCommitDeterminism pins the replica-independence property
// the E17 drift gate relies on: a session restored from a snapshot
// must answer the next committed epoch bit-identically (==, not
// within tolerance) to the live session it was snapshotted from. The
// two sessions agree on all discrete state — platform bits, committed
// capacities, carried basis — but not on solver internals: the live
// one carries its cold solve's data-dependent row-sign normalization,
// an accumulated eta-file factorization and evolved pricing
// weights, while the restored one runs on identity signs and a fresh
// refactorization. Without Session.commitLocked's Rebase
// call those histories pick different optimal vertices on degenerate
// platforms and the heuristic Value drifts at ~1e-13..1e-2 while the
// LP bound still matches — exactly the failure this test reproduced
// before the fix.
func TestRestoreCommitDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pl := testPlatform(t, 20, seed)
		cfg, err := parseConfig(&CreateSessionRequest{Objective: "maxmin", Heuristic: "lprg"})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := newSession(pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 77))
		factors := func() []float64 {
			f := make([]float64, 20)
			for i := range f {
				f[i] = 0.9 + 0.2*rng.Float64()
			}
			return f
		}
		for e := 0; e < 20; e++ {
			if _, err := sess.Epoch(&EpochRequest{SpeedFactor: factors(), GatewayFactor: factors()}); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := cluster.DecodeSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		restored, _, warm, err := RestoreSession(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !warm {
			t.Fatalf("seed %d: restore was not warm", seed)
		}
		next := &EpochRequest{SpeedFactor: factors(), GatewayFactor: factors()}
		repA, err := sess.Epoch(next)
		if err != nil {
			t.Fatal(err)
		}
		repB, err := restored.Epoch(next)
		if err != nil {
			t.Fatal(err)
		}
		if repA.Value != repB.Value || repA.LPBound != repB.LPBound {
			t.Errorf("seed %d: original (%.17g, %.17g) vs restored (%.17g, %.17g)",
				seed, repA.Value, repA.LPBound, repB.Value, repB.LPBound)
		}
	}
}

// TestRestoredSessionCommitsAsLive holds the whole committed state to the
// snapshot: a commit is a pure function of the platform and the carried
// basis — its columns, at-upper set and steepest-edge weights (Rebase) —
// so a session restored from a snapshot must commit every later epoch as
// the live one does, not only the next. On 6 K = 20 platforms drawn as
// the benchmark draws them, the live session commits 5 epochs, is
// snapshotted, encoded, decoded and restored, and then both apply the
// same 10 epochs: every report is the same bytes. A basis
// shipped without its weights passes the next commit here but not the
// later ones: the restored solve prices its first pivots from weights the
// live one does not hold.
func TestRestoredSessionCommitsAsLive(t *testing.T) {
	const K = 20
	for seed := int64(1); seed <= 6; seed++ {
		pl, err := platgen.Generate(platgen.Params{K: K, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5},
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		payoffs := make([]float64, K)
		for i := range payoffs {
			payoffs[i] = float64(1 + i%3)
		}
		cfg, err := parseConfig(&CreateSessionRequest{Objective: "maxmin", Heuristic: "lprg", Payoffs: payoffs})
		if err != nil {
			t.Fatal(err)
		}
		live, err := newSession(pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 131))
		epoch := func() *EpochRequest {
			f, g := make([]float64, K), make([]float64, K)
			for i := range f {
				f[i], g[i] = 0.85+0.3*rng.Float64(), 0.85+0.3*rng.Float64()
			}
			return &EpochRequest{SpeedFactor: f, GatewayFactor: g}
		}
		for e := 0; e < 5; e++ {
			if _, err := live.Epoch(epoch()); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := live.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := cluster.DecodeSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		restored, _, warm, err := RestoreSession(dec)
		if err != nil || !warm {
			t.Fatalf("seed %d: restore: warm %v, %v", seed, warm, err)
		}
		for e := 0; e < 10; e++ {
			req := epoch()
			a, err := live.Epoch(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.Epoch(req)
			if err != nil {
				t.Fatal(err)
			}
			if wa, wb := marshalReport(a), marshalReport(b); wa == nil || !bytes.Equal(wa, wb) {
				t.Fatalf("seed %d, commit %d after the restore: the reports differ (live value %.17g bound %.17g, restored %.17g bound %.17g)",
					seed, e+1, a.Value, a.LPBound, b.Value, b.LPBound)
			}
		}
	}
}

// TestRestoredSessionAnswersAsLive holds a restored replica to its owner
// for every session heuristic: a restore is the root solve alone, and
// every answer after it is a function of that root. On tight K = 6 and
// K = 10 platforms (seeds 1–3), drawn as the benchmark draws its own,
// with 1 + i mod 3 payoffs, an lprg, lprr, lprr-eq and bnb session under
// each objective creates, commits 3 epochs and is snapshotted, encoded,
// decoded and restored. Then
//   - the restore ran exactly one warm solve and no cold one;
//   - the empty what-if, a relaxed one, a relaxed one with one speed
//     moved and a heuristic one with one gateway moved answer with the
//     live session's bytes;
//   - both sessions commit 4 more epochs with the same bytes.
//
// A restore that ran the heuristic and then re-solved the root, rather
// than standing where the owner's commit left its solver, answers the
// heuristics that pin differently here.
func TestRestoredSessionAnswersAsLive(t *testing.T) {
	for _, heur := range []string{"lprg", "lprr", "lprr-eq", "bnb"} {
		for _, K := range []int{6, 10} {
			for seed := int64(1); seed <= 3; seed++ {
				pl, payoffs := tightPlatform(t, K, seed)
				for _, obj := range []string{"sum", "maxmin"} {
					cfg, err := parseConfig(&CreateSessionRequest{Objective: obj, Heuristic: heur, Payoffs: payoffs, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					live, err := newSession(pl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed * 17))
					epoch := func() *EpochRequest {
						f, g := make([]float64, K), make([]float64, K)
						for i := range f {
							f[i], g[i] = 0.85+0.3*rng.Float64(), 0.85+0.3*rng.Float64()
						}
						return &EpochRequest{SpeedFactor: f, GatewayFactor: g}
					}
					for e := 0; e < 3; e++ {
						if _, err := live.Epoch(epoch()); err != nil {
							t.Fatal(err)
						}
					}
					snap, err := live.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					enc, err := snap.Encode()
					if err != nil {
						t.Fatal(err)
					}
					dec, err := cluster.DecodeSnapshot(enc)
					if err != nil {
						t.Fatal(err)
					}
					restored, _, _, err := RestoreSession(dec)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s K=%d seed %d %s", heur, K, seed, obj)
					if st := restored.Stats().Solver; st.WarmSolves != 1 || st.ColdSolves != 0 {
						t.Fatalf("%s: the restore ran %d warm and %d cold solves, want 1 and 0", name, st.WarmSolves, st.ColdSolves)
					}
					c := live.state.Load()
					probes := []WhatIfRequest{
						{},
						{Relax: true},
						{Speeds: []ClusterValue{{Cluster: 0, Value: 0.8 * c.pr.Platform.Clusters[0].Speed}}, Relax: true},
						{Gateways: []ClusterValue{{Cluster: 1, Value: 0.7 * c.pr.Platform.Clusters[1].Gateway}}},
					}
					for i := range probes {
						a, err := live.WhatIf(&probes[i])
						if err != nil {
							t.Fatal(err)
						}
						b, err := restored.WhatIf(&probes[i])
						if err != nil {
							t.Fatal(err)
						}
						a.Cached, b.Cached = false, false
						if wa, wb := marshalReport(a), marshalReport(b); wa == nil || !bytes.Equal(wa, wb) {
							t.Errorf("%s, probe %d: the restored what-if differs (live value %.17g bound %.17g, restored %.17g bound %.17g)",
								name, i, a.Value, a.LPBound, b.Value, b.LPBound)
						}
					}
					for e := 0; e < 4; e++ {
						req := epoch()
						a, err := live.Epoch(req)
						if err != nil {
							t.Fatal(err)
						}
						b, err := restored.Epoch(req)
						if err != nil {
							t.Fatal(err)
						}
						if wa, wb := marshalReport(a), marshalReport(b); wa == nil || !bytes.Equal(wa, wb) {
							t.Fatalf("%s, commit %d after the restore: the reports differ (live value %.17g bound %.17g, restored %.17g bound %.17g)",
								name, e+1, a.Value, a.LPBound, b.Value, b.LPBound)
						}
					}
				}
			}
		}
	}
}
