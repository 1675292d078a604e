package service

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
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
// refactorization. Without Session.solveLocked's Rebase
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
		sess, _, err := newSession(pl, cfg)
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
