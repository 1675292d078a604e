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
// unless -workers explicitly asks for more. Its LP column is the one
// relaxation solved per platform and objective; its LPR, LPRG and LPRR
// columns are that solve plus each one's own work from it, as the
// paper's Figure 7 counts them; G is its whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/platgen"
)

// artifact is one §6 artifact: its default K values and platform
// count per K (-ks and -platforms override them), the Table 1 filter
// its platforms are drawn under, and how it runs and renders.
type artifact struct {
	name      string
	ks        []int
	platforms int
	filter    func(platgen.Params) bool
	run       func(opts experiments.Options, csv bool) (string, error)
}

var defaults = experiments.DefaultOptions()

// artifacts are the values -exp accepts besides "all", in the order
// "all" runs them.
var artifacts = []artifact{
	{name: "aggregate", ks: defaults.Ks, platforms: defaults.PlatformsPer, run: aggregate},
	{name: "fig5", ks: defaults.Ks, platforms: defaults.PlatformsPer, run: ratios(experiments.Figure5)},
	{name: "fig6", ks: []int{10, 15, 20}, platforms: 4, run: ratios(experiments.Figure6)},
	// §6.2 sensitivity companion: fig6 restricted to the network-bound
	// corner of the Table 1 grid, where rounding β̃ matters most.
	{name: "fig6-tight", ks: []int{10, 15, 20}, platforms: 4, filter: experiments.TightNetworkFilter, run: ratios(experiments.Figure6)},
	{name: "fig7", ks: []int{10, 20, 30, 40}, platforms: 3, run: times},
}

func aggregate(opts experiments.Options, _ bool) (string, error) {
	agg, err := experiments.AggregateRatios(opts)
	if err != nil {
		return "", err
	}
	return experiments.RenderAggregate(agg), nil
}

func ratios(figure func(experiments.Options) ([]experiments.RatioPoint, error)) func(experiments.Options, bool) (string, error) {
	return func(opts experiments.Options, csv bool) (string, error) {
		pts, err := figure(opts)
		if err != nil {
			return "", err
		}
		if csv {
			return experiments.RenderRatioCSV(pts), nil
		}
		return experiments.RenderRatioTable(pts), nil
	}
}

func times(opts experiments.Options, csv bool) (string, error) {
	pts, err := experiments.Figure7(opts)
	if err != nil {
		return "", err
	}
	if csv {
		return experiments.RenderTimeCSV(pts), nil
	}
	return experiments.RenderTimeTable(pts), nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var valid []string
	for _, a := range artifacts {
		valid = append(valid, a.name)
	}
	valid = append(valid, "all")
	var (
		exp       = flag.String("exp", "all", "one of "+strings.Join(valid, ", "))
		seed      = flag.Int64("seed", defaults.Seed, "sweep seed")
		platforms = flag.Int("platforms", 0, "platforms per K (0 = per-experiment default)")
		ks        = flag.String("ks", "", "comma-separated K values (default per experiment)")
		lprrMax   = flag.Int("lprr-max-k", defaults.LPRRMaxK, "largest K on which the K²-cost LPRR runs")
		workers   = flag.Int("workers", 0, "sweep worker goroutines (0 = one per CPU; fig7 stays sequential unless set > 1)")
		csv       = flag.Bool("csv", false, "emit CSV instead of ASCII tables")
		outdir    = flag.String("outdir", "", "also write each artifact to this directory")
	)
	flag.Parse()
	var ksOverride []int
	if *ks != "" {
		for _, part := range strings.Split(*ks, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -ks entry %q: %w", part, err)
			}
			if v < 1 {
				return fmt.Errorf("bad -ks entry %d: want K >= 1", v)
			}
			ksOverride = append(ksOverride, v)
		}
	}
	switch {
	case *platforms < 0:
		return fmt.Errorf("-platforms %d: want >= 0", *platforms)
	case *workers < 0:
		return fmt.Errorf("-workers %d: want >= 0", *workers)
	case *lprrMax < 0:
		return fmt.Errorf("-lprr-max-k %d: want >= 0", *lprrMax)
	}
	var todo []artifact
	for _, a := range artifacts {
		if *exp == "all" || *exp == a.name {
			todo = append(todo, a)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown -exp %q (valid: %s)", *exp, strings.Join(valid, ", "))
	}

	ext := ".txt"
	if *csv {
		ext = ".csv"
	}
	for _, a := range todo {
		opts := experiments.Options{
			Seed: *seed, Ks: a.ks, PlatformsPer: a.platforms,
			LPRRMaxK: *lprrMax, Workers: *workers, GridFilter: a.filter,
		}
		if ksOverride != nil {
			opts.Ks = ksOverride
		}
		if *platforms > 0 {
			opts.PlatformsPer = *platforms
		}
		content, err := a.run(opts, *csv)
		if err != nil {
			return err
		}
		fmt.Printf("== %s ==\n%s\n", a.name, content)
		if *outdir == "" {
			continue
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outdir, a.name+ext), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
