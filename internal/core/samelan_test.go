package core

import (
	"testing"

	"repro/internal/platform"
)

// mixedLANPlatform has two clusters on the same router (an empty-path
// route with MinBW = +Inf between them) plus a third cluster across a
// backbone link — the mixed LAN/WAN shape of ISSUE 2's regression.
func mixedLANPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	pl := &platform.Platform{
		Routers: 2,
		Links:   []platform.Link{{U: 0, V: 1, BW: 10, MaxConnect: 5}},
		Clusters: []platform.Cluster{
			{Name: "a", Speed: 100, Gateway: 50, Router: 0},
			{Name: "b", Speed: 80, Gateway: 40, Router: 0},
			{Name: "c", Speed: 60, Gateway: 30, Router: 1},
		},
	}
	if err := pl.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestModelSameLAN(t *testing.T) {
	pr := NewProblem(mixedLANPlatform(t))
	for _, obj := range []Objective{SUM, MAXMIN} {
		m, err := pr.NewModel(obj)
		if err != nil {
			t.Fatalf("NewModel(%v): %v", obj, err)
		}
		bound, ok, err := m.Solve(nil)
		if err != nil || !ok {
			t.Fatalf("Solve(%v): ok=%v err=%v", obj, ok, err)
		}
		rs, ok, err := relaxed(pr.alphaLayout(), obj)
		if err != nil || !ok {
			t.Fatalf("relaxed(%v): ok=%v err=%v", obj, ok, err)
		}
		if diff := bound - rs.Objective; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%v: model obj %g != relaxed obj %g", obj, bound, rs.Objective)
		}
		m.ResetBounds()
		if _, ok, err := m.Solve(nil); err != nil || !ok {
			t.Fatalf("re-Solve(%v) after ResetBounds: ok=%v err=%v", obj, ok, err)
		}
	}
}
