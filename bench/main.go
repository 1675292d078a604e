// Command bench is the repository's benchmark: it boots real schedd
// nodes on loopback inside this process, replays seeded op lists at
// them over HTTP from one closed-loop client, and reports six
// end-to-end metrics per workload (or, traced, the per-layer ones).
// README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// Defaults of a full-length run. runSeconds matches run_seconds in
// BENCHMARK.json: the replay counts in workloads.go are sized so the
// timed replays of a workload take about that long on the 2-core
// reference box, and -seconds scales them proportionally.
const (
	defaultSeed = 1
	runSeconds  = 20
	minReplays  = 2
	traceDir    = "bench/out"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Int64("seed", defaultSeed, "seed of the op lists and drift targets")
	seconds := flag.Int("seconds", runSeconds, "scales each workload's replay count; the run stays op-count-bounded")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics and bench/out/<workload>.trace.json")
	aa := flag.Bool("aa", false, "A/A study: two sets of -passes runs per workload, written to bench/AA.md")
	passes := flag.Int("passes", 10, "runs per set in the A/A study")
	flag.Parse()

	if *aa {
		os.Exit(runAA(*passes, *seconds))
	}
	selected := workloads
	if *workloadName != "" {
		wl := workloadByName(*workloadName)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		selected = []*workload{wl}
	}
	ok := true
	for _, wl := range selected {
		var res *result
		var err error
		if *trace != 0 {
			res, err = runTraced(wl, *seed, wl.n, traceDir)
		} else {
			res, err = run(wl, *seed, wl.n, replaysFor(wl, *seconds))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
		}
		report(os.Stdout, res, defs)
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// replaysFor scales a workload's replay count to the -seconds budget.
func replaysFor(wl *workload, seconds int) int {
	return max(minReplays, int(math.Round(float64(wl.r*seconds)/runSeconds)))
}

// passInfo is the line before the result: what was served and how
// loud the host was, so a reviewer can tell noise from a regression
// without rerunning.
type passInfo struct {
	Workload        string    `json:"workload"`
	Seed            int64     `json:"seed"`
	Ops             int       `json:"ops"`
	Replays         int       `json:"replays"`
	Digest          string    `json:"digest"`
	ReplayMs        []float64 `json:"replay_ms"` // wall time of each timed replay, in order
	ReplaySpreadPct float64   `json:"replay_spread_pct"`
	HostFactor      float64   `json:"host_factor,omitempty"` // median replay's host level (hostspeed.go)
	Noisy           bool      `json:"noisy"`
	PivotsPerReplay [2]int    `json:"pivots_per_replay_min_max"`
	Problems        []string  `json:"problems,omitempty"`
}

// outcome is the last line of a run, the driver's contract.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints every metric in defs by name with its unit, then the
// pass line and the result line.
func report(w io.Writer, res *result, defs []metricDef) {
	fmt.Fprintf(w, "workload %s  seed %d  ops %d  replays %d  ops-sha256 %s\n", res.workload, res.seed, res.n, res.r, res.digest)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, res.metrics[d.Name].Value, d.Unit)
	}
	noisy := res.spreadPct > noisySpreadPct
	fmt.Fprintf(w, "  replay spread %.1f%% (max-min over min of the replay walls)", res.spreadPct)
	if noisy {
		fmt.Fprint(w, ": NOISY pass")
	}
	fmt.Fprintln(w)
	if res.hostFactor != 0 {
		fmt.Fprintf(w, "  host factor %.3f (times above are at nominal host speed: measured / factor)\n", res.hostFactor)
	}
	if res.pivotMin != res.pivotMax {
		fmt.Fprintf(w, "  lp pivots per replay differ: %d..%d\n", res.pivotMin, res.pivotMax)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintln(w, "  ORACLE:", p)
	}
	mustPrint(w, passInfo{
		Workload: res.workload, Seed: res.seed, Ops: res.n, Replays: res.r, Digest: res.digest,
		ReplayMs: res.replayMs, ReplaySpreadPct: res.spreadPct, HostFactor: res.hostFactor, Noisy: noisy,
		PivotsPerReplay: [2]int{res.pivotMin, res.pivotMax}, Problems: res.problems,
	})
	out := outcome{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = res.metrics[d.Name]
	}
	mustPrint(w, out)
}

func mustPrint(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only NaN/Inf metrics can do this: a bug in the estimator
	}
	fmt.Fprintf(w, "%s\n", data)
}
