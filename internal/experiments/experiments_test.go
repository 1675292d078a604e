package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platgen"
)

// tinyOptions keeps unit tests fast; the full-scale defaults are
// exercised by cmd/experiments and the benchmarks.
func tinyOptions() Options {
	return Options{Seed: 7, PlatformsPer: 2, Ks: []int{5, 10}, LPRRMaxK: 10}
}

func TestFigure5Shape(t *testing.T) {
	pts, err := Figure5(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].K != 5 || pts[1].K != 10 {
		t.Fatalf("points = %+v", pts)
	}
	for _, pt := range pts {
		if pt.Platforms != 2 {
			t.Fatalf("K=%d platforms=%d", pt.K, pt.Platforms)
		}
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			for _, name := range []heuristics.Name{heuristics.NameG, heuristics.NameLPRG} {
				r, ok := pt.Ratio[obj][name]
				if !ok {
					t.Fatalf("missing ratio %v/%s", obj, name)
				}
				if r < 0 || r > 1+1e-6 {
					t.Fatalf("ratio %v/%s = %g out of [0,1]", obj, name, r)
				}
			}
		}
	}
}

func TestFigure6IncludesLPRR(t *testing.T) {
	opts := tinyOptions()
	opts.Ks = []int{5}
	pts, err := Figure6(opts)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	for _, name := range []heuristics.Name{heuristics.NameLPRR, heuristics.NameLPRREQ} {
		if _, ok := pt.Ratio[core.SUM][name]; !ok {
			t.Fatalf("missing %s in figure 6 point", name)
		}
	}
}

func TestRatioSweepSkipsLPRRAboveCap(t *testing.T) {
	opts := tinyOptions()
	opts.Ks = []int{15}
	opts.LPRRMaxK = 10
	pts, err := RatioSweep(opts, []heuristics.Name{heuristics.NameG, heuristics.NameLPRR})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pts[0].Ratio[core.SUM][heuristics.NameLPRR]; ok {
		t.Fatal("LPRR must be skipped above LPRRMaxK")
	}
	if _, ok := pts[0].Ratio[core.SUM][heuristics.NameG]; !ok {
		t.Fatal("G must still run")
	}
}

func TestRatioSweepDeterministic(t *testing.T) {
	opts := tinyOptions()
	a, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for obj, m := range a[i].Ratio {
			for name, v := range m {
				if b[i].Ratio[obj][name] != v {
					t.Fatalf("sweep not deterministic at K=%d %v %s", a[i].K, obj, name)
				}
			}
		}
	}
}

func TestAggregateRatios(t *testing.T) {
	agg, err := AggregateRatios(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Platforms != 4 {
		t.Fatalf("platforms = %d", agg.Platforms)
	}
	for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
		if agg.LPRGOverG[obj] < 1-1e-6 {
			t.Fatalf("LPRG/G %v = %g < 1 (LPRG dominates LPR+greedy refinement of nothing)", obj, agg.LPRGOverG[obj])
		}
		if agg.GOverLP[obj] <= 0 || agg.GOverLP[obj] > 1+1e-6 {
			t.Fatalf("G/LP %v = %g out of (0,1]", obj, agg.GOverLP[obj])
		}
		if agg.LPRGOverLP[obj] < agg.LPROverLP[obj]-1e-9 {
			t.Fatalf("%v: LPRG/LP %g below LPR/LP %g", obj, agg.LPRGOverLP[obj], agg.LPROverLP[obj])
		}
	}
}

func TestFigure7Timings(t *testing.T) {
	opts := tinyOptions()
	opts.Ks = []int{5}
	// The ordering this test holds: G is fastest, and LPRR's cell is
	// the LP's plus its pins, so LPRR ≥ LPR by construction. It does
	// not show §6.3's K² LP solves: on this K = 5 unit-payoff sample
	// every optimum is all local, so an LPRR run is the relaxation's
	// cold solve plus one warm solve, with every route pinned to 0 in
	// bulk (ROADMAP item 15's network-bound records are where the K²
	// cost shows). At K=5 the absolute timings are microseconds, so
	// scheduler noise can invert the G/LPRG pair on a loaded machine;
	// retry a couple of times before declaring the ordering wrong.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		pts, err := Figure7(opts)
		if err != nil {
			t.Fatal(err)
		}
		pt := pts[0]
		for _, name := range []heuristics.Name{heuristics.NameG, heuristics.NameLPR, heuristics.NameLPRG, heuristics.NameLPRR} {
			v, ok := pt.Seconds[name]
			if !ok {
				t.Fatalf("missing timing for %s", name)
			}
			if v < 0 {
				t.Fatalf("negative timing for %s", name)
			}
		}
		switch {
		case pt.Seconds[heuristics.NameG] > pt.Seconds[heuristics.NameLPRG]:
			lastErr = fmt.Errorf("G (%g s) slower than LPRG (%g s)", pt.Seconds[heuristics.NameG], pt.Seconds[heuristics.NameLPRG])
		case pt.Seconds[heuristics.NameLPRR] < pt.Seconds[heuristics.NameLPR]:
			lastErr = fmt.Errorf("LPRR (%g s) faster than LPR (%g s)", pt.Seconds[heuristics.NameLPRR], pt.Seconds[heuristics.NameLPR])
		default:
			return
		}
	}
	t.Fatal(lastErr)
}

func TestRenderRatioTableAndCSV(t *testing.T) {
	pts, err := Figure5(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	table := RenderRatioTable(pts)
	if !strings.Contains(table, "SUM(G)/LP") || !strings.Contains(table, "MAXMIN(LPRG)/LP") {
		t.Fatalf("table missing columns:\n%s", table)
	}
	if len(strings.Split(strings.TrimSpace(table), "\n")) != 3 {
		t.Fatalf("table should have header + 2 rows:\n%s", table)
	}
	csv := RenderRatioCSV(pts)
	if !strings.HasPrefix(csv, "k,platforms,") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if RenderRatioTable(nil) != "(no data)\n" || RenderRatioCSV(nil) != "" {
		t.Fatal("empty renders wrong")
	}
}

func TestRenderTimeTableAndCSV(t *testing.T) {
	opts := tinyOptions()
	opts.Ks = []int{5}
	pts, err := Figure7(opts)
	if err != nil {
		t.Fatal(err)
	}
	table := RenderTimeTable(pts)
	if !strings.Contains(table, "LP(s)") || !strings.Contains(table, "LPRR(s)") {
		t.Fatalf("time table missing columns:\n%s", table)
	}
	csv := RenderTimeCSV(pts)
	if !strings.HasPrefix(csv, "k,platforms,lp_seconds") {
		t.Fatalf("time csv header wrong:\n%s", csv)
	}
	if RenderTimeTable(nil) != "(no data)\n" || RenderTimeCSV(nil) != "" {
		t.Fatal("empty renders wrong")
	}
}

func TestRenderAggregate(t *testing.T) {
	agg, err := AggregateRatios(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderAggregate(agg)
	for _, want := range []string{"LPRG/G", "G/LP", "LPR/LP", "platforms: 4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("aggregate render missing %q:\n%s", want, out)
		}
	}
}

func TestGridFilterRestrictsSamples(t *testing.T) {
	opts := tinyOptions()
	opts.Ks = []int{5}
	opts.GridFilter = TightNetworkFilter
	pts, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Platforms != 2 {
		t.Fatalf("platforms = %d", pts[0].Platforms)
	}
	// The filter itself must accept exactly the tight corner.
	tight := platgen.Params{K: 5, MeanMaxCon: 5, MeanBW: 30, MeanG: 250}
	if !TightNetworkFilter(tight) {
		t.Fatal("tight corner rejected")
	}
	for _, loose := range []platgen.Params{
		{K: 5, MeanMaxCon: 95, MeanBW: 30, MeanG: 250},
		{K: 5, MeanMaxCon: 5, MeanBW: 90, MeanG: 250},
		{K: 5, MeanMaxCon: 5, MeanBW: 30, MeanG: 50},
	} {
		if TightNetworkFilter(loose) {
			t.Fatalf("loose grid point accepted: %+v", loose)
		}
	}
}

func TestSamplePlatformOffGrid(t *testing.T) {
	// K=7 is not a Table 1 value; the sampler draws the other five
	// parameters from the grid with K replaced.
	opts := tinyOptions()
	opts.Ks = []int{7}
	pts, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Platforms != 2 {
		t.Fatalf("platforms = %d", pts[0].Platforms)
	}
}

// TestTightFilterHoldsOffGrid: every platform Figure6 samples under
// TightNetworkFilter, at the K values fig6-tight runs by default (10
// and 20 are not Table 1 values), comes from a point the filter
// accepts. The draw precedes every heuristic, so LPRRMaxK does not
// change which points are drawn.
func TestTightFilterHoldsOffGrid(t *testing.T) {
	opts := Options{Seed: 1, PlatformsPer: 4, GridFilter: TightNetworkFilter}
	for _, k := range []int{10, 15, 20} {
		recs, err := sweep(opts, k, saltRatio, figure6Names, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if rec.params.K != k || !TightNetworkFilter(rec.params) {
				t.Fatalf("K=%d platform %d drawn from %+v, which the filter rejects", k, i, rec.params)
			}
		}
	}
}

// TestSweepRecordsHoldSection6Invariants gates §6's inequalities on
// every record of a sweep, never golden values: no heuristic beats the
// LP bound, and LPRG (LPR plus a greedy fill that only adds) is never
// below LPR. Degenerate bounds (≤ 1e-9) form no ratio and are
// skipped, but the sweep must meet some bound that is not.
func TestSweepRecordsHoldSection6Invariants(t *testing.T) {
	names := []heuristics.Name{heuristics.NameG, heuristics.NameLPR, heuristics.NameLPRG, heuristics.NameLPRR, heuristics.NameLPRREQ}
	checked := 0
	for _, filter := range []func(platgen.Params) bool{nil, TightNetworkFilter} {
		opts := Options{Seed: 3, PlatformsPer: 4, LPRRMaxK: 15, GridFilter: filter}
		for _, k := range []int{5, 10, 15, 25} {
			recs, err := sweep(opts, k, saltRatio, names, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range recs {
				for j, m := range rec.by {
					if m.bound <= degenerate {
						continue
					}
					where := fmt.Sprintf("K=%d platform %d %v (%+v)", k, i, objectives[j], rec.params)
					for name, r := range m.results {
						if r.Value > m.bound*(1+1e-9) {
							t.Errorf("%s: %s = %g above the LP bound %g", where, name, r.Value, m.bound)
						}
					}
					if lprg, lpr := m.results[heuristics.NameLPRG].Value, m.results[heuristics.NameLPR].Value; lprg < lpr {
						t.Errorf("%s: LPRG %g below LPR %g", where, lprg, lpr)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("every bound was degenerate; nothing was checked")
	}
	t.Logf("%d records checked", checked)
}

// sameRatios fails unless two ratio sweeps report the same points,
// bit for bit.
func sameRatios(t *testing.T, what string, a, b []RatioPoint) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d points against %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].K != b[i].K || a[i].Platforms != b[i].Platforms {
			t.Fatalf("%s: point %d differs", what, i)
		}
		for obj, m := range a[i].Ratio {
			if len(m) != len(b[i].Ratio[obj]) {
				t.Fatalf("%s K=%d %v: columns differ", what, a[i].K, obj)
			}
			for name, v := range m {
				if w, ok := b[i].Ratio[obj][name]; !ok || w != v {
					t.Fatalf("%s K=%d %v %s: %g against %g", what, a[i].K, obj, name, v, w)
				}
			}
		}
	}
}

// TestSweepIndependentOfWorkerCount: the pooled driver must be
// bitwise reproducible regardless of parallelism — each platform owns
// a sub-RNG derived from (seed, K, index), never a shared stream. That
// covers LPRR, which draws from it, and filtered sweeps.
func TestSweepIndependentOfWorkerCount(t *testing.T) {
	seq := tinyOptions()
	seq.Workers = 1
	par := tinyOptions()
	par.Workers = 4
	for _, c := range []struct {
		what   string
		figure func(Options) ([]RatioPoint, error)
		filter func(platgen.Params) bool
	}{
		{"Figure5", Figure5, nil},
		{"Figure6", Figure6, nil},
		{"tight Figure6", Figure6, TightNetworkFilter},
	} {
		seq.GridFilter, par.GridFilter = c.filter, c.filter
		a, err := c.figure(seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.figure(par)
		if err != nil {
			t.Fatal(err)
		}
		sameRatios(t, c.what, a, b)
	}
	seq.GridFilter, par.GridFilter = nil, nil
	aggA, err := AggregateRatios(seq)
	if err != nil {
		t.Fatal(err)
	}
	aggB, err := AggregateRatios(par)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
		if aggA.LPRGOverG[obj] != aggB.LPRGOverG[obj] {
			t.Fatalf("%v: aggregate differs across worker counts", obj)
		}
	}
}

// TestSweepBoundIsAllLocal holds the LP bound of every sweep-sampled
// platform at K ≤ 20, with and without TightNetworkFilter, to the
// all-local closed form (DESIGN.md "Scale"): platgen fixes every speed
// at 100 and core.NewProblem's payoffs are 1, so SUM ≤ Σ s_l = 100·K
// and MAXMIN ≤ Σ s_l / K = 100, and computing every load where it lives
// meets both without a gateway or a link. The constants are written
// out, so a change to platgen's speed or to the default payoffs fails
// here until the closed form is restated.
func TestSweepBoundIsAllLocal(t *testing.T) {
	checked := 0
	for _, filter := range []func(platgen.Params) bool{nil, TightNetworkFilter} {
		opts := Options{Seed: 1, PlatformsPer: 4, GridFilter: filter}
		for _, k := range []int{5, 10, 15, 20} {
			recs, err := sweep(opts, k, saltRatio, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, rec := range recs {
				for j, obj := range objectives {
					want := 100.0
					if obj == core.SUM {
						want *= float64(k)
					}
					if got := rec.by[j].bound; math.Abs(got-want) > 1e-9*want {
						t.Errorf("K=%d platform %d %v (%+v): LP bound %.12g, the all-local closed form %g", k, i, obj, rec.params, got, want)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d bounds checked", checked)
}
