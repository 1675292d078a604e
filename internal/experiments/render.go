package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/heuristics"
)

// ratioCol is one (objective, heuristic) column of a ratio sweep.
type ratioCol struct {
	obj  core.Objective
	name heuristics.Name
}

// ratioColumns lists every (objective, heuristic) pair any point
// reports, objective first, then heuristic name.
func ratioColumns(points []RatioPoint) []ratioCol {
	var cols []ratioCol
	for _, pt := range points {
		for _, obj := range objectives {
			for name := range pt.Ratio[obj] {
				if c := (ratioCol{obj, name}); !slices.Contains(cols, c) {
					cols = append(cols, c)
				}
			}
		}
	}
	slices.SortFunc(cols, func(a, b ratioCol) int {
		if a.obj != b.obj {
			return cmp.Compare(a.obj, b.obj)
		}
		return cmp.Compare(a.name, b.name)
	})
	return cols
}

// RenderRatioTable formats a ratio sweep as an aligned ASCII table,
// one row per K, one column per (objective, heuristic) pair — the
// textual form of Figures 5 and 6.
func RenderRatioTable(points []RatioPoint) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	cols := ratioColumns(points)
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %6s", "K", "plats")
	for _, c := range cols {
		fmt.Fprintf(&b, " %16s", fmt.Sprintf("%s(%s)/LP", c.obj, c.name))
	}
	b.WriteByte('\n')
	for _, pt := range points {
		fmt.Fprintf(&b, "%4d %6d", pt.K, pt.Platforms)
		for _, c := range cols {
			if v, ok := pt.Ratio[c.obj][c.name]; ok {
				fmt.Fprintf(&b, " %16.3f", v)
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderRatioCSV formats a ratio sweep as CSV with the same columns
// as RenderRatioTable.
func RenderRatioCSV(points []RatioPoint) string {
	if len(points) == 0 {
		return ""
	}
	cols := ratioColumns(points)
	var b strings.Builder
	b.WriteString("k,platforms")
	for _, c := range cols {
		fmt.Fprintf(&b, ",%s_%s_over_lp", strings.ToLower(c.obj.String()), strings.ToLower(string(c.name)))
	}
	b.WriteByte('\n')
	for _, pt := range points {
		fmt.Fprintf(&b, "%d,%d", pt.K, pt.Platforms)
		for _, c := range cols {
			if v, ok := pt.Ratio[c.obj][c.name]; ok {
				fmt.Fprintf(&b, ",%.6f", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderTimeTable formats a Figure 7 sweep as an ASCII table of mean
// seconds per heuristic. The LP column is the relaxation's one solve;
// LPR's, LPRG's and LPRR's columns are that solve plus their own work,
// and G's is its whole run (see TimePoint).
func RenderTimeTable(points []TimePoint) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	names := timeColumns(points)
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %6s %12s", "K", "plats", "LP(s)")
	for _, n := range names {
		fmt.Fprintf(&b, " %12s", string(n)+"(s)")
	}
	b.WriteByte('\n')
	for _, pt := range points {
		fmt.Fprintf(&b, "%4d %6d %12.4g", pt.K, pt.Platforms, pt.LPSeconds)
		for _, n := range names {
			if v, ok := pt.Seconds[n]; ok {
				fmt.Fprintf(&b, " %12.4g", v)
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderTimeCSV formats a Figure 7 sweep as CSV, with the columns
// RenderTimeTable counts.
func RenderTimeCSV(points []TimePoint) string {
	if len(points) == 0 {
		return ""
	}
	names := timeColumns(points)
	var b strings.Builder
	b.WriteString("k,platforms,lp_seconds")
	for _, n := range names {
		fmt.Fprintf(&b, ",%s_seconds", strings.ToLower(string(n)))
	}
	b.WriteByte('\n')
	for _, pt := range points {
		fmt.Fprintf(&b, "%d,%d,%.6g", pt.K, pt.Platforms, pt.LPSeconds)
		for _, n := range names {
			if v, ok := pt.Seconds[n]; ok {
				fmt.Fprintf(&b, ",%.6g", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func timeColumns(points []TimePoint) []heuristics.Name {
	var names []heuristics.Name
	for _, pt := range points {
		for n := range pt.Seconds {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	}
	slices.Sort(names)
	return names
}

// RenderAggregate formats the §6.1 headline comparison.
func RenderAggregate(a *Aggregate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "platforms: %d\n", a.Platforms)
	fmt.Fprintf(&b, "%-22s %10s %10s\n", "metric", "SUM", "MAXMIN")
	row := func(label string, m map[core.Objective]float64) {
		fmt.Fprintf(&b, "%-22s %10.3f %10.3f\n", label, m[core.SUM], m[core.MAXMIN])
	}
	row("LPRG/G", a.LPRGOverG)
	row("G/LP", a.GOverLP)
	row("LPRG/LP", a.LPRGOverLP)
	row("LPR/LP", a.LPROverLP)
	return b.String()
}
