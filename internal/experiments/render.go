package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/heuristics"
)

// RenderRatioTable formats a ratio sweep as an aligned ASCII table,
// one row per K, one column per (objective, heuristic) pair — the
// textual form of Figures 5 and 6.
func RenderRatioTable(points []RatioPoint) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	type col struct {
		obj  core.Objective
		name heuristics.Name
	}
	var cols []col
	seen := map[string]bool{}
	for _, pt := range points {
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			for name := range pt.Ratio[obj] {
				key := obj.String() + "/" + string(name)
				if !seen[key] {
					seen[key] = true
					cols = append(cols, col{obj, name})
				}
			}
		}
	}
	sort.Slice(cols, func(i, j int) bool {
		if cols[i].obj != cols[j].obj {
			return cols[i].obj < cols[j].obj
		}
		return cols[i].name < cols[j].name
	})
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
	type col struct {
		obj  core.Objective
		name heuristics.Name
	}
	var cols []col
	seen := map[string]bool{}
	for _, pt := range points {
		for _, obj := range []core.Objective{core.SUM, core.MAXMIN} {
			for name := range pt.Ratio[obj] {
				key := obj.String() + "/" + string(name)
				if !seen[key] {
					seen[key] = true
					cols = append(cols, col{obj, name})
				}
			}
		}
	}
	sort.Slice(cols, func(i, j int) bool {
		if cols[i].obj != cols[j].obj {
			return cols[i].obj < cols[j].obj
		}
		return cols[i].name < cols[j].name
	})
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
// seconds per heuristic.
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

// RenderTimeCSV formats a Figure 7 sweep as CSV.
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
	seen := map[heuristics.Name]bool{}
	var names []heuristics.Name
	for _, pt := range points {
		for n := range pt.Seconds {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// RenderAdaptiveTable formats an E11 warm-vs-cold epoch sweep as an
// ASCII table. The trailing columns are the warm loop's solver
// statistics (summed over platforms): simplex pivots, basis
// refactorizations, pivot-free bound flips and cold fallbacks.
func RenderAdaptiveTable(points []AdaptivePoint) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %6s %7s %6s %10s %10s %8s %10s %6s %7s %8s %7s %7s %7s\n",
		"K", "plats", "epochs", "mode", "cold(s)", "warm(s)", "speedup", "maxdiff", "gain", "budget",
		"pivots", "refact", "flips", "fallbk")
	for _, pt := range points {
		diff := "-"
		if !math.IsNaN(pt.MaxObjDiff) {
			diff = fmt.Sprintf("%.2e", pt.MaxObjDiff)
		}
		fmt.Fprintf(&b, "%4d %6d %7d %6s %10.4g %10.4g %7.1fx %10s %6.2f %7d %8d %7d %7d %7d\n",
			pt.K, pt.Platforms, pt.Epochs, pt.Mode, pt.ColdSeconds, pt.WarmSeconds,
			pt.Speedup, diff, pt.MeanGain, pt.BudgetHits,
			pt.WarmPivots, pt.WarmRefactors, pt.WarmBoundFlips, pt.WarmColdFallbacks)
	}
	return b.String()
}

// RenderAdaptiveCSV formats an E11 sweep as CSV.
func RenderAdaptiveCSV(points []AdaptivePoint) string {
	if len(points) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("k,platforms,epochs,mode,cold_seconds,warm_seconds,speedup,max_obj_diff,mean_gain,budget_hits," +
		"warm_pivots,warm_refactorizations,warm_bound_flips,warm_cold_fallbacks\n")
	for _, pt := range points {
		diff := ""
		if !math.IsNaN(pt.MaxObjDiff) {
			diff = fmt.Sprintf("%.6g", pt.MaxObjDiff)
		}
		fmt.Fprintf(&b, "%d,%d,%d,%s,%.6g,%.6g,%.4g,%s,%.6g,%d,%d,%d,%d,%d\n",
			pt.K, pt.Platforms, pt.Epochs, pt.Mode, pt.ColdSeconds, pt.WarmSeconds,
			pt.Speedup, diff, pt.MeanGain, pt.BudgetHits,
			pt.WarmPivots, pt.WarmRefactors, pt.WarmBoundFlips, pt.WarmColdFallbacks)
	}
	return b.String()
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

// RenderBatchTable formats an E15 sweep as an aligned table.
func RenderBatchTable(points []BatchPoint) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %6s %6s %9s %8s %7s %10s %10s %10s %10s %8s %6s %10s %10s %9s %9s %10s\n",
		"K", "plats", "m", "batch", "distinct", "workers", "serial(s)", "batch(s)",
		"serialQPS", "batchQPS", "speedup", "cold", "offeredQPS", "achieved", "p50(ms)", "p99(ms)", "maxdiff")
	for _, pt := range points {
		fmt.Fprintf(&b, "%4d %6d %6.1f %9d %8d %7d %10.4g %10.4g %10.1f %10.1f %7.1fx %6d %10.1f %10.1f %9.2f %9.2f %10.2e\n",
			pt.K, pt.Platforms, pt.Rows, pt.BatchSize, pt.Distinct, pt.Workers,
			pt.SerialSeconds, pt.BatchSeconds, pt.SerialQPS, pt.BatchQPS, pt.Speedup,
			pt.BatchColdSolves, pt.OfferedQPS, pt.AchievedQPS, pt.P50Millis, pt.P99Millis, pt.MaxDiff)
	}
	return b.String()
}

// RenderBatchCSV formats an E15 sweep as CSV.
func RenderBatchCSV(points []BatchPoint) string {
	if len(points) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("k,platforms,rows,batch_size,distinct,workers,serial_seconds,batch_seconds," +
		"serial_qps,batch_qps,speedup,batch_cold_solves,open_loop_queries,offered_qps,achieved_qps," +
		"p50_millis,p99_millis,max_diff\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "%d,%d,%.6g,%d,%d,%d,%.6g,%.6g,%.6g,%.6g,%.4g,%d,%d,%.6g,%.6g,%.6g,%.6g,%.6g\n",
			pt.K, pt.Platforms, pt.Rows, pt.BatchSize, pt.Distinct, pt.Workers,
			pt.SerialSeconds, pt.BatchSeconds, pt.SerialQPS, pt.BatchQPS, pt.Speedup,
			pt.BatchColdSolves, pt.OpenLoopQueries, pt.OfferedQPS, pt.AchievedQPS,
			pt.P50Millis, pt.P99Millis, pt.MaxDiff)
	}
	return b.String()
}

// RenderClusterTable formats an E16 sweep as an aligned table.
func RenderClusterTable(points []ClusterPoint) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %6s %6s %7s %9s %10s %10s %8s %5s %10s %9s %9s %8s %6s %6s %6s %6s %10s\n",
		"K", "plats", "m", "epochs", "snap(B)", "cold(s)", "warm(s)", "speedup", "cold",
		"rbdiff", "hit(us)", "wi(us)", "cachex", "fwd", "migr", "rwarm", "rcold", "ringdiff")
	for _, pt := range points {
		fmt.Fprintf(&b, "%4d %6d %6.1f %7d %9.0f %10.4g %10.4g %7.1fx %5d %10.2e %9.2f %9.2f %7.1fx %6d %6d %6d %6d %10.2e\n",
			pt.K, pt.Platforms, pt.Rows, pt.Epochs, pt.SnapshotBytes,
			pt.ColdBuildSeconds, pt.WarmRebuildSeconds, pt.WarmSpeedup, pt.WarmColdSolves,
			pt.MaxRebuildDiff, pt.CacheHitMicros, pt.WarmWhatIfMicros, pt.CacheSpeedup,
			pt.Forwarded, pt.Migrations, pt.RingWarmRebuilds, pt.RingColdRebuilds, pt.MaxRingDiff)
	}
	return b.String()
}

// RenderClusterCSV formats an E16 sweep as CSV.
func RenderClusterCSV(points []ClusterPoint) string {
	if len(points) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("k,platforms,rows,epochs,snapshot_bytes,cold_build_seconds,warm_rebuild_seconds," +
		"warm_speedup,warm_cold_solves,max_rebuild_diff,cache_hit_micros,warm_whatif_micros," +
		"cache_speedup,forwarded,migrations,ring_warm_rebuilds,ring_cold_rebuilds,max_ring_diff\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "%d,%d,%.6g,%d,%.6g,%.6g,%.6g,%.4g,%d,%.6g,%.6g,%.6g,%.4g,%d,%d,%d,%d,%.6g\n",
			pt.K, pt.Platforms, pt.Rows, pt.Epochs, pt.SnapshotBytes,
			pt.ColdBuildSeconds, pt.WarmRebuildSeconds, pt.WarmSpeedup, pt.WarmColdSolves,
			pt.MaxRebuildDiff, pt.CacheHitMicros, pt.WarmWhatIfMicros, pt.CacheSpeedup,
			pt.Forwarded, pt.Migrations, pt.RingWarmRebuilds, pt.RingColdRebuilds, pt.MaxRingDiff)
	}
	return b.String()
}

// RenderChaosTable formats an E17 sweep as an aligned table.
func RenderChaosTable(points []ChaosPoint) string {
	if len(points) == 0 {
		return "(no data)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %6s %7s %8s %6s %6s %6s %7s %7s %6s %7s %7s %7s %9s %6s %6s %10s\n",
		"K", "plats", "epochs", "reqs", "drop", "err", "delay", "retries", "failov", "promo",
		"client", "failed", "killed", "fomax(ms)", "warm", "cold", "drift")
	for _, pt := range points {
		fmt.Fprintf(&b, "%4d %6d %7d %8d %6d %6d %6d %7d %7d %6d %7d %7d %7d %9.1f %6d %6d %10.2e\n",
			pt.K, pt.Platforms, pt.Epochs, pt.Requests, pt.Dropped, pt.Errored, pt.Delayed,
			pt.Retries, pt.Failovers, pt.Promotions, pt.ClientRequests, pt.FailedRequests,
			pt.KilledSessions, pt.FailoverMaxMillis, pt.WarmRebuilds, pt.ColdRebuilds, pt.MaxDrift)
	}
	return b.String()
}

// RenderChaosCSV formats an E17 sweep as CSV.
func RenderChaosCSV(points []ChaosPoint) string {
	if len(points) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("k,platforms,epochs,requests,dropped,errored,delayed,retries,failovers,promotions," +
		"client_requests,failed_requests,killed_sessions,failover_max_millis,warm_rebuilds,cold_rebuilds,max_drift\n")
	for _, pt := range points {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6g,%d,%d,%.6g\n",
			pt.K, pt.Platforms, pt.Epochs, pt.Requests, pt.Dropped, pt.Errored, pt.Delayed,
			pt.Retries, pt.Failovers, pt.Promotions, pt.ClientRequests, pt.FailedRequests,
			pt.KilledSessions, pt.FailoverMaxMillis, pt.WarmRebuilds, pt.ColdRebuilds, pt.MaxDrift)
	}
	return b.String()
}
