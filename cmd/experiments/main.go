// Command experiments regenerates the paper's evaluation artifacts
// (§6): Figure 5, Figure 6, Figure 7 and the §6.1 aggregate ratios,
// as ASCII tables (default) or CSV.
//
// Usage:
//
//	experiments -exp fig5
//	experiments -exp all -platforms 10 -csv -outdir results/
//	experiments -exp fig6 -ks 10,15,20,25 -platforms 20   # paper scale
//	experiments -exp adaptive -epochs 30                  # E11 warm-vs-cold epochs
//
// Sweeps run platforms in parallel on a worker pool (one goroutine
// per CPU by default, -workers to override); per-platform seeded
// sub-RNGs keep every artifact reproducible at any parallelism.
// fig7 measures wall-clock times and therefore stays sequential
// unless -workers explicitly asks for more.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "all", "one of fig5, fig6, fig6-tight, fig7, aggregate, adaptive, batch, cluster, chaos, all")
		batchSize = flag.Int("batch-size", 256, "queries per batch (exp=batch)")
		dupFactor = flag.Int("dup-factor", 4, "copies of each distinct mutation within a batch (exp=batch)")
		openLoop  = flag.Int("open-loop", 256, "open-loop Poisson arrivals per platform, 0 to skip (exp=batch)")
		epochs    = flag.Int("epochs", 20, "epochs per adaptive run (exp=adaptive, cluster, chaos)")
		seed      = flag.Int64("seed", 1, "sweep seed")
		platforms = flag.Int("platforms", 0, "platforms per K (0 = per-experiment default)")
		ks        = flag.String("ks", "", "comma-separated K values (default per experiment)")
		lprrMax   = flag.Int("lprr-max-k", 20, "largest K on which the K²-cost LPRR runs")
		workers   = flag.Int("workers", 0, "sweep worker goroutines (0 = one per CPU; fig7 stays sequential unless set > 1)")
		csv       = flag.Bool("csv", false, "emit CSV instead of ASCII tables")
		outdir    = flag.String("outdir", "", "also write each artifact to this directory")
		jsonOut   = flag.Bool("json", false, "also write machine-readable BENCH_E*.json files for the perf sweeps (adaptive→BENCH_E11, batch→BENCH_E15, cluster→BENCH_E16, chaos→BENCH_E17), to -outdir or the current directory")
	)
	flag.Parse()

	base := experiments.DefaultOptions()
	base.Seed = *seed
	base.LPRRMaxK = *lprrMax
	base.Workers = *workers
	if *platforms > 0 {
		base.PlatformsPer = *platforms
	}
	var ksOverride []int
	if *ks != "" {
		for _, part := range strings.Split(*ks, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -ks entry %q: %w", part, err)
			}
			ksOverride = append(ksOverride, v)
		}
	}

	emit := func(name, content string) error {
		fmt.Printf("== %s ==\n%s\n", name, content)
		if *outdir == "" {
			return nil
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
		ext := ".txt"
		if *csv {
			ext = ".csv"
		}
		return os.WriteFile(filepath.Join(*outdir, name+ext), []byte(content), 0o644)
	}

	// writeJSON records a perf sweep's points verbatim, so successive
	// PRs can diff BENCH_E*.json files instead of re-parsing tables.
	writeJSON := func(name string, v any) error {
		if !*jsonOut {
			return nil
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("marshaling %s: %w", name, err)
		}
		dir := *outdir
		if dir == "" {
			dir = "."
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("aggregate") {
		opts := base
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		agg, err := experiments.AggregateRatios(opts)
		if err != nil {
			return err
		}
		if err := emit("aggregate", experiments.RenderAggregate(agg)); err != nil {
			return err
		}
	}
	if want("fig5") {
		opts := base
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		pts, err := experiments.Figure5(opts)
		if err != nil {
			return err
		}
		content := experiments.RenderRatioTable(pts)
		if *csv {
			content = experiments.RenderRatioCSV(pts)
		}
		if err := emit("fig5", content); err != nil {
			return err
		}
	}
	if want("fig6") {
		opts := base
		opts.Ks = []int{10, 15, 20}
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		if *platforms == 0 {
			opts.PlatformsPer = 4
		}
		pts, err := experiments.Figure6(opts)
		if err != nil {
			return err
		}
		content := experiments.RenderRatioTable(pts)
		if *csv {
			content = experiments.RenderRatioCSV(pts)
		}
		if err := emit("fig6", content); err != nil {
			return err
		}
	}
	if want("fig6-tight") {
		// §6.2 sensitivity companion: same sweep as fig6 but
		// restricted to the network-bound corner of the Table 1 grid,
		// where rounding β̃ matters and LPRR-EQ visibly trails LPRR.
		opts := base
		opts.Ks = []int{10, 15, 20}
		opts.GridFilter = experiments.TightNetworkFilter
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		if *platforms == 0 {
			opts.PlatformsPer = 4
		}
		pts, err := experiments.Figure6(opts)
		if err != nil {
			return err
		}
		content := experiments.RenderRatioTable(pts)
		if *csv {
			content = experiments.RenderRatioCSV(pts)
		}
		if err := emit("fig6-tight", content); err != nil {
			return err
		}
	}
	if want("adaptive") {
		// E11: the §1 adaptability loop, cold per-epoch LP rebuilds
		// versus the persistent warm-started model. Exact (BnB) rows
		// double as a soundness check (maxdiff must be ~0); LPRG rows
		// time the polynomial heuristic at larger K. Wall-clock, so
		// sequential unless -workers asks otherwise.
		opts := base
		opts.Ks = []int{4, 6}
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		if *platforms == 0 {
			opts.PlatformsPer = 3
		}
		pts, err := experiments.AdaptiveSweep(opts, *epochs, experiments.AdaptiveExact)
		if err != nil {
			return err
		}
		// LPRG rows run through K=20: with native variable bounds and
		// the sparse LU/eta-file basis, warm restarts beat a cold
		// rebuild across the whole range.
		lprgOpts := opts
		if ksOverride == nil {
			lprgOpts.Ks = []int{10, 15, 20}
		}
		lprgPts, err := experiments.AdaptiveSweep(lprgOpts, *epochs, experiments.AdaptiveLPRG)
		if err != nil {
			return err
		}
		pts = append(pts, lprgPts...)
		content := experiments.RenderAdaptiveTable(pts)
		if *csv {
			content = experiments.RenderAdaptiveCSV(pts)
		}
		if err := emit("adaptive", content); err != nil {
			return err
		}
		if err := writeJSON("BENCH_E11.json", pts); err != nil {
			return err
		}
	}
	if want("batch") {
		// E15: the batched what-if engine (forked solve contexts,
		// intra-batch dedupe, lean relaxation reports) against the
		// serialized single-what-if path, on one warm scheduling-service
		// session per platform, plus an open-loop Poisson sustained-load
		// run with arrival-to-completion latency percentiles.
		// Wall-clock, so sequential unless -workers asks otherwise.
		opts := base
		opts.Ks = []int{10, 20}
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		if *platforms == 0 {
			opts.PlatformsPer = 3
		}
		pts, err := experiments.BatchSweep(opts, *batchSize, *dupFactor, *openLoop)
		if err != nil {
			return err
		}
		content := experiments.RenderBatchTable(pts)
		if *csv {
			content = experiments.RenderBatchCSV(pts)
		}
		if err := emit("batch", content); err != nil {
			return err
		}
		if err := writeJSON("BENCH_E15.json", pts); err != nil {
			return err
		}
	}
	if want("cluster") {
		// E16: the cluster subsystem — session snapshots rebuilt warm
		// on a replica against the cold rebuild baseline, answer-cache
		// hit latency against the warm solves it short-circuits, and a
		// three-replica consistent-hash ring with live warm migration
		// on membership change. Wall-clock, so sequential unless
		// -workers asks otherwise.
		opts := base
		opts.Ks = []int{10, 20, 30}
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		if *platforms == 0 {
			opts.PlatformsPer = 3
		}
		pts, err := experiments.ClusterSweep(opts, *epochs)
		if err != nil {
			return err
		}
		content := experiments.RenderClusterTable(pts)
		if *csv {
			content = experiments.RenderClusterCSV(pts)
		}
		if err := emit("cluster", content); err != nil {
			return err
		}
		if err := writeJSON("BENCH_E16.json", pts); err != nil {
			return err
		}
	}
	if want("chaos") {
		// E17: fault injection against the replicated failure-aware
		// ring — a control run and a chaos run (deterministic network
		// faults, then an owner kill) of the same seeded workload,
		// gated on zero failed client requests, zero cold rebuilds and
		// answer drift <= 1e-9 vs the control. Timing-sensitive
		// (failure-detector windows), so sequential by design.
		opts := base
		opts.Ks = []int{10, 20}
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		if *platforms == 0 {
			opts.PlatformsPer = 3
		}
		pts, err := experiments.ChaosSweep(opts, *epochs)
		if err != nil {
			return err
		}
		content := experiments.RenderChaosTable(pts)
		if *csv {
			content = experiments.RenderChaosCSV(pts)
		}
		if err := emit("chaos", content); err != nil {
			return err
		}
		if err := writeJSON("BENCH_E17.json", pts); err != nil {
			return err
		}
	}
	if want("fig7") {
		opts := base
		opts.Ks = []int{10, 20, 30, 40}
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		if *platforms == 0 {
			opts.PlatformsPer = 3
		}
		pts, err := experiments.Figure7(opts)
		if err != nil {
			return err
		}
		content := experiments.RenderTimeTable(pts)
		if *csv {
			content = experiments.RenderTimeCSV(pts)
		}
		if err := emit("fig7", content); err != nil {
			return err
		}
	}
	return nil
}
