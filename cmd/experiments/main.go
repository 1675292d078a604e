// Command experiments regenerates the paper's evaluation artifacts
// (§6): Figure 5, Figure 6, Figure 7 and the §6.1 aggregate ratios,
// as ASCII tables (default) or CSV.
//
// Usage:
//
//	experiments -exp fig5
//	experiments -exp all -platforms 10 -csv -outdir results/
//	experiments -exp fig6 -ks 10,15,20,25 -platforms 20   # paper scale
//
// Sweeps run platforms in parallel on a worker pool (one goroutine
// per CPU by default, -workers to override); per-platform seeded
// sub-RNGs keep every artifact reproducible at any parallelism.
// fig7 measures wall-clock times and therefore stays sequential
// unless -workers explicitly asks for more.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// validExps are the values -exp accepts: the paper's §6 artifacts.
var validExps = []string{"fig5", "fig6", "fig6-tight", "fig7", "aggregate", "all"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp       = flag.String("exp", "all", "one of "+strings.Join(validExps, ", "))
		seed      = flag.Int64("seed", 1, "sweep seed")
		platforms = flag.Int("platforms", 0, "platforms per K (0 = per-experiment default)")
		ks        = flag.String("ks", "", "comma-separated K values (default per experiment)")
		lprrMax   = flag.Int("lprr-max-k", 20, "largest K on which the K²-cost LPRR runs")
		workers   = flag.Int("workers", 0, "sweep worker goroutines (0 = one per CPU; fig7 stays sequential unless set > 1)")
		csv       = flag.Bool("csv", false, "emit CSV instead of ASCII tables")
		outdir    = flag.String("outdir", "", "also write each artifact to this directory")
	)
	flag.Parse()
	if !slices.Contains(validExps, *exp) {
		return fmt.Errorf("unknown -exp %q (valid: %s)", *exp, strings.Join(validExps, ", "))
	}

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
