package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// aaFile is where the committed A/A study lives.
const aaFile = "bench/AA.md"

// hostFactorRow is the extra row of each workload's run listing: the
// host-speed factor of each run, which is not a metric.
const hostFactorRow = "host_factor"

// quartiles are the cut points Python's statistics.quantiles(values,
// n=4) gives (the exclusive method), which is what the gate computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runChild runs this binary once on one workload, as the gate does,
// and returns the metrics of its result line.
func runChild(exe string, wl *workload, seed int64, seconds int) (map[string]value, error) {
	cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", wl.name, seed, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res outcome
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", wl.name, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: incorrect run (%d of %d failed)", wl.name, seed, res.Failed, res.Attempted)
	}
	// The pass line, for the record of how slow the host was.
	var pass passInfo
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &pass) != nil {
		return nil, fmt.Errorf("%s seed %d: no pass line before the result line", wl.name, seed)
	}
	res.Metrics[hostFactorRow] = value{Value: pass.HostFactor}
	return res.Metrics, nil
}

// runAA is the A/A study: two sets of passes runs of every workload,
// each run a fresh process with its own seed (set A seeds 1..passes,
// set B the next passes), exactly the comparison the gate makes
// between two commits — here with the same code on both sides. It
// prints and writes, per workload × metric, both medians, how much
// worse B's is than A's, and each set's interquartile spread, and
// returns non-zero if any gap — or, setup_s aside, any spread —
// exceeds the metric's bound.
func runAA(passes, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	started := time.Now()
	// samples[set][workload][metric] = one value per pass
	var samples [2]map[string]map[string][]float64
	for set := range samples {
		samples[set] = map[string]map[string][]float64{}
		for p := 0; p < passes; p++ {
			seed := int64(set*passes + p + 1)
			for _, wl := range workloads {
				m, err := runChild(exe, wl, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if samples[set][wl.name] == nil {
					samples[set][wl.name] = map[string][]float64{}
				}
				for name, v := range m {
					samples[set][wl.name][name] = append(samples[set][wl.name][name], v.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: A/A set %c pass %d/%d done (%s)\n", 'A'+set, p+1, passes, time.Since(started).Round(time.Second))
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# A/A study\n\n")
	fmt.Fprintf(&b, "`go run ./bench -aa -passes %d -seconds %d`: two sets of %d runs per workload of the same binary,\n", passes, seconds, passes)
	fmt.Fprintf(&b, "one process per run, set A on seeds 1..%d and set B on seeds %d..%d. `gap` is how much worse\n", passes, passes+1, 2*passes)
	fmt.Fprintf(&b, "B's median is than A's (negative: better); `iqr` is (Q3 − Q1) / median within a set, quartiles as\n")
	fmt.Fprintf(&b, "Python's `statistics.quantiles(values, n=4)`. A bound is supported when |gap| ≤ bound / 2 and, as the\n")
	fmt.Fprintf(&b, "gate requires of every metric but `setup_s`, both spreads are within the bound. Times are at nominal\n")
	fmt.Fprintf(&b, "host speed; `host_factor` in the run listings is how much slower than that the host ran.\n\n")
	status := 0
	for _, wl := range workloads {
		fmt.Fprintf(&b, "## %s\n\n", wl.name)
		fmt.Fprintf(&b, "| metric | unit | median A | median B | gap | iqr A | iqr B | bound | supported |\n|---|---|---:|---:|---:|---:|---:|---:|---|\n")
		for _, d := range endToEnd {
			a1, a2, a3 := quartiles(samples[0][wl.name][d.Name])
			b1, b2, b3 := quartiles(samples[1][wl.name][d.Name])
			gap := (b2 - a2) / a2
			if d.Better == "higher" {
				gap = -gap
			}
			iqrA, iqrB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "yes"
			switch {
			case gap > d.Bound:
				verdict = "NO: gap over the bound"
				status = 1
			case d.Name != "setup_s" && max(iqrA, iqrB) > d.Bound:
				verdict = "NO: spread over the bound"
				status = 1
			case math.Abs(gap) > d.Bound/2:
				verdict = "no: gap over half the bound"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				d.Name, d.Unit, a2, b2, 100*gap, 100*iqrA, 100*iqrB, 100*d.Bound, verdict)
		}
		fmt.Fprintf(&b, "\nRuns, in order (A then B):\n\n```\n")
		for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], metricDef{Name: hostFactorRow}) {
			for set, tag := range "AB" {
				fmt.Fprintf(&b, "%-16s %c", d.Name, tag)
				for _, v := range samples[set][wl.name][d.Name] {
					fmt.Fprintf(&b, " %.5g", v)
				}
				fmt.Fprintln(&b)
			}
		}
		fmt.Fprintf(&b, "```\n\n")
	}
	fmt.Print(b.String())
	if err := os.WriteFile(aaFile, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}
