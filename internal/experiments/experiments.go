// Package experiments regenerates the paper's evaluation artifacts
// (§6): the Table 1 parameter sweep, the aggregate LPRG-vs-G ratios,
// Figure 5 (objective value relative to the LP upper bound as the
// number of clusters grows), Figure 6 (LPRR vs the other heuristics
// on a fixed set of topologies) and Figure 7 (heuristic running
// times). The paper's exhaustive 269,835-platform sweep is replaced
// by a seeded, reproducible sample of the same parameter grid
// (DESIGN.md, "Scale"); every entry point takes explicit sizes so
// callers can widen the sweep arbitrarily.
//
// Sweeps run on a worker pool (Options.Workers goroutines, default
// GOMAXPROCS): each sampled platform is an independent task with its
// own sub-RNG derived from (seed, K, platform index), so results are
// bitwise reproducible regardless of worker count or scheduling
// order, and Table 1 / Figure 5-7 regeneration scales with cores.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/platgen"
)

// Options sizes a sweep. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	Seed         int64
	PlatformsPer int   // platforms per K value
	Ks           []int // cluster counts to sweep
	LPRRMaxK     int   // largest K on which the K²-cost LPRR heuristics run
	// Workers is the sweep pool size; 0 means one worker per CPU,
	// except in Figure7, which defaults to sequential timing (see its
	// doc comment) and only parallelizes on an explicit Workers > 1.
	Workers int
	// GridFilter optionally restricts which Table 1 grid points are
	// sampled (nil = whole grid), at a K the grid lists or not
	// (platgen.Sample). TightNetworkFilter reproduces the §6.2
	// rounding-sensitivity regime.
	GridFilter func(platgen.Params) bool
}

// TightNetworkFilter keeps only the network-bound corner of the
// Table 1 grid: the smallest connection budgets and bandwidths, where
// rounding β̃ matters most. On these platforms the gap between
// proportional randomized rounding (LPRR) and the equal-probability
// control (LPRR-EQ) that the paper reports in §6.2 becomes visible.
func TightNetworkFilter(p platgen.Params) bool {
	return p.MeanMaxCon <= 5 && p.MeanBW <= 30 && p.MeanG >= 250
}

// DefaultOptions mirrors the paper's ranges at a tractable scale:
// the paper sweeps K = 5..95 over 269,835 platforms with a C solver;
// we default to K = 5..45 with a handful of platforms per point.
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		PlatformsPer: 8,
		Ks:           []int{5, 15, 25, 35, 45},
		LPRRMaxK:     20,
	}
}

// objectives are the two objectives every sweep measures, in order.
var objectives = []core.Objective{core.SUM, core.MAXMIN}

// degenerate is the LP bound at or below which a platform forms no
// ratio; no heuristic is run against it.
const degenerate = 1e-9

// measure is one sampled platform under one objective: the LP upper
// bound, how long its one solve took, and each heuristic's result (nil
// when the bound is degenerate). LPR, LPRG and LPRR start from that
// solve's optimum, so their Elapsed is their own work past it.
type measure struct {
	bound   float64
	lpTime  time.Duration
	results map[heuristics.Name]heuristics.Result
}

// record is one sampled platform: the Table 1 point it was drawn from
// and a measure per objective, in objectives' order.
type record struct {
	params platgen.Params
	by     []measure
}

// sweep draws opts.PlatformsPer platforms at K = k on a pool of
// workers and measures each under both objectives. Platform i draws
// from subRNG(opts.Seed, k, i, salt) alone — its Table 1 point, its
// instance and the randomized heuristics' coins — so an artifact's
// salt fixes its platforms and no record depends on workers. The
// relaxation is solved once per objective as a session's create solves
// it (heuristics.Relax): its optimum is the LP bound, and LPR, LPRG and
// LPRR start from it. The named heuristics run in order, each
// objective in turn; LPRR and LPRR-EQ only up to opts.LPRRMaxK (on a
// network-bound record their K² LP solves dominate, as §6.3 notes).
func sweep(opts Options, k int, salt int64, names []heuristics.Name, workers int) ([]record, error) {
	recs := make([]record, opts.PlatformsPer)
	err := forEach(workers, opts.PlatformsPer, func(i int) error {
		rng := subRNG(opts.Seed, k, i, salt)
		params, err := platgen.Sample(k, rng, opts.GridFilter)
		if err != nil {
			return err
		}
		pl, err := platgen.Generate(params, rng)
		if err != nil {
			return err
		}
		pr := core.NewProblem(pl)
		rec := record{params: params, by: make([]measure, len(objectives))}
		for j, obj := range objectives {
			m := &rec.by[j]
			start := time.Now()
			rel, err := heuristics.Relax(pr, obj)
			if err != nil {
				return fmt.Errorf("experiments: LP bound K=%d: %w", k, err)
			}
			m.bound, m.lpTime = rel.Objective, time.Since(start)
			if m.bound <= degenerate {
				continue
			}
			m.results = make(map[heuristics.Name]heuristics.Result, len(names))
			for _, name := range names {
				if name.Randomized() && k > opts.LPRRMaxK {
					continue
				}
				if m.results[name], err = heuristics.Run(name, pr, rel, rng, 0); err != nil {
					return fmt.Errorf("experiments: %s K=%d: %w", name, k, err)
				}
			}
		}
		recs[i] = rec
		return nil
	})
	return recs, err
}

// RatioPoint is one K value of a ratio sweep: for each objective and
// heuristic, the mean of objective(heuristic)/objective(LP) over the
// sampled platforms — the quantity on the y axis of Figures 5 and 6.
type RatioPoint struct {
	K         int
	Platforms int
	Ratio     map[core.Objective]map[heuristics.Name]float64
}

// Each artifact family draws its own platforms; the salts are fixed,
// since changing one changes every number of its artifacts.
const (
	saltRatio     = 1
	saltAggregate = 2
	saltTime      = 3
)

// RatioSweep runs the named heuristics on opts.PlatformsPer seeded
// random platforms per K and reports, per objective, each heuristic's
// mean ratio to the LP upper bound over the platforms whose bound is
// not degenerate. LPRR and LPRR-EQ are skipped above opts.LPRRMaxK.
func RatioSweep(opts Options, names []heuristics.Name) ([]RatioPoint, error) {
	var out []RatioPoint
	for _, k := range opts.Ks {
		recs, err := sweep(opts, k, saltRatio, names, opts.Workers)
		if err != nil {
			return nil, err
		}
		pt := RatioPoint{K: k, Platforms: len(recs), Ratio: make(map[core.Objective]map[heuristics.Name]float64)}
		for j, obj := range objectives {
			pt.Ratio[obj] = make(map[heuristics.Name]float64)
			for _, name := range names {
				sum, n := 0.0, 0
				for _, rec := range recs {
					if r, ok := rec.by[j].results[name]; ok {
						sum += r.Value / rec.by[j].bound
						n++
					}
				}
				if n > 0 {
					pt.Ratio[obj][name] = sum / float64(n)
				}
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// Figure5 reproduces Figure 5: LPRG and G relative to the LP upper
// bound, SUM and MAXMIN, as K grows.
func Figure5(opts Options) ([]RatioPoint, error) {
	return RatioSweep(opts, []heuristics.Name{heuristics.NameG, heuristics.NameLPRG})
}

// figure6Names are the heuristics Figure 6 compares.
var figure6Names = []heuristics.Name{
	heuristics.NameG, heuristics.NameLPRG, heuristics.NameLPRR, heuristics.NameLPRREQ,
}

// Figure6 reproduces Figure 6 (§6.2): on a small set of topologies,
// LPRR (and its equal-probability control) against G and LPRG. The
// paper uses 80 topologies with K between 10 and 25; opts controls
// the actual count.
func Figure6(opts Options) ([]RatioPoint, error) {
	return RatioSweep(opts, figure6Names)
}

// Aggregate reproduces the §6.1 headline numbers over a sampled
// grid: the mean ratio of the LPRG objective to the G objective for
// MAXMIN and SUM (the paper reports 1.98 and 1.02), and the mean
// LPR/LP ratio (the paper reports LPR is "very poor").
type Aggregate struct {
	Platforms  int
	LPRGOverG  map[core.Objective]float64
	LPROverLP  map[core.Objective]float64
	GOverLP    map[core.Objective]float64
	LPRGOverLP map[core.Objective]float64
}

// AggregateRatios computes the §6.1 aggregates over the sweep defined
// by opts: means over every sampled platform whose bound is not
// degenerate, all K values pooled.
func AggregateRatios(opts Options) (*Aggregate, error) {
	agg := &Aggregate{
		LPRGOverG:  make(map[core.Objective]float64),
		LPROverLP:  make(map[core.Objective]float64),
		GOverLP:    make(map[core.Objective]float64),
		LPRGOverLP: make(map[core.Objective]float64),
	}
	counts := make(map[core.Objective]int)
	names := []heuristics.Name{heuristics.NameG, heuristics.NameLPR, heuristics.NameLPRG}
	for _, k := range opts.Ks {
		recs, err := sweep(opts, k, saltAggregate, names, opts.Workers)
		if err != nil {
			return nil, err
		}
		agg.Platforms += len(recs)
		for _, rec := range recs {
			for j, obj := range objectives {
				m := rec.by[j]
				if m.results == nil {
					continue
				}
				g := m.results[heuristics.NameG].Value
				lprg := m.results[heuristics.NameLPRG].Value
				counts[obj]++
				agg.LPROverLP[obj] += m.results[heuristics.NameLPR].Value / m.bound
				agg.GOverLP[obj] += g / m.bound
				agg.LPRGOverLP[obj] += lprg / m.bound
				switch {
				case g > 1e-9:
					agg.LPRGOverG[obj] += lprg / g
				case lprg > 1e-9:
					// G scored zero but LPRG did not; count a large
					// finite advantage rather than an infinity.
					agg.LPRGOverG[obj] += 10
				default:
					agg.LPRGOverG[obj]++
				}
			}
		}
	}
	for obj, c := range counts {
		agg.LPRGOverG[obj] /= float64(c)
		agg.LPROverLP[obj] /= float64(c)
		agg.GOverLP[obj] /= float64(c)
		agg.LPRGOverLP[obj] /= float64(c)
	}
	return agg, nil
}

// TimePoint is one K value of the Figure 7 running-time sweep: mean
// wall-clock seconds per heuristic (and for the bare LP solve). LPR's,
// LPRG's and LPRR's seconds are the LP solve's plus their own work, the
// one solve the paper's Figure 7 charges each of them: LPRR's cell is
// the LP's plus its pins. Its K² LP solves show on network-bound records
// only (ROADMAP item 15); on an all-local optimum LPRR pins every route
// to 0 at once.
type TimePoint struct {
	K         int
	Platforms int
	Seconds   map[heuristics.Name]float64
	LPSeconds float64
}

// Figure7 reproduces Figure 7: mean running time of G, LPR, LPRG and
// LPRR versus K (log scale when plotted), as TimePoint says. LPRR is
// skipped above opts.LPRRMaxK. Times are averaged over opts.PlatformsPer platforms
// and both objectives, like the paper's measurement protocol.
//
// Because this artifact measures wall-clock time, Figure7 times
// sequentially (one worker) unless opts.Workers explicitly asks for
// parallelism — concurrent platforms contend for cores and would
// silently inflate the very quantity being plotted.
func Figure7(opts Options) ([]TimePoint, error) {
	names := []heuristics.Name{heuristics.NameG, heuristics.NameLPR, heuristics.NameLPRG, heuristics.NameLPRR}
	workers := max(opts.Workers, 1)
	var out []TimePoint
	for _, k := range opts.Ks {
		recs, err := sweep(opts, k, saltTime, names, workers)
		if err != nil {
			return nil, err
		}
		pt := TimePoint{K: k, Platforms: len(recs), Seconds: make(map[heuristics.Name]float64)}
		counts := make(map[heuristics.Name]int)
		lpCount := 0
		for _, rec := range recs {
			for _, m := range rec.by {
				pt.LPSeconds += m.lpTime.Seconds()
				lpCount++
				for name, r := range m.results {
					pt.Seconds[name] += r.Elapsed.Seconds()
					if name.ReadsRelaxation() {
						pt.Seconds[name] += m.lpTime.Seconds()
					}
					counts[name]++
				}
			}
		}
		for name, c := range counts {
			pt.Seconds[name] /= float64(c)
		}
		if lpCount > 0 {
			pt.LPSeconds /= float64(lpCount)
		}
		out = append(out, pt)
	}
	return out, nil
}
