package main

// metricDef is one row of the benchmark's metric catalogue; the same
// rows are committed in BENCHMARK.json (smoke_test.go checks the two
// agree), so a name printed by the program is always a name the gate
// knows.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the six gated metrics, identical on every workload.
// All latency figures are statistics of q_i = min over replays of op
// i's latency at nominal host speed (see README.md, "Estimator").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.03},
}

// perLayer are the traced run's metrics, never gated. A name is its
// layer (the module it attributes to) plus a suffix.
var perLayer = []metricDef{
	{Name: "client.wall_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.raw_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.raw_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.replay_spread_pct", Unit: "%", Better: "lower"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "http.self_us", Unit: "us", Better: "lower"},

	{Name: "service.handler_us", Unit: "us", Better: "lower"},
	{Name: "service.session_us", Unit: "us", Better: "lower"},
	{Name: "service.codec_self_us", Unit: "us", Better: "lower"},
	{Name: "service.req_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "service.resp_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.failed_ops", Unit: "count", Better: "lower"},

	{Name: "router.forward_ratio", Unit: "ratio", Better: "lower"},
	{Name: "router.forward_hop_us", Unit: "us", Better: "lower"},
	{Name: "router.retries", Unit: "count", Better: "lower"},
	{Name: "router.failovers", Unit: "count", Better: "lower"},

	{Name: "replication.fanout_us", Unit: "us", Better: "lower"},
	{Name: "replication.sent_per_commit", Unit: "ratio", Better: "higher"},
	{Name: "replication.errors", Unit: "count", Better: "lower"},

	{Name: "cluster.snapshot_kb", Unit: "KiB", Better: "lower"},
	{Name: "cluster.snapshot_encode_us", Unit: "us", Better: "lower"},
	{Name: "cluster.snapshot_decode_us", Unit: "us", Better: "lower"},
	{Name: "cluster.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},

	{Name: "model.self_us", Unit: "us", Better: "lower"},
	{Name: "heuristics.lprg_us", Unit: "us", Better: "lower"},

	{Name: "lp.pivots_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.us_per_pivot", Unit: "us", Better: "lower"},
	{Name: "lp.warm_solves_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.cold_solves", Unit: "count", Better: "lower"},
	{Name: "lp.cold_fallbacks", Unit: "count", Better: "lower"},
	{Name: "lp.refactors_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.bound_flips_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.ft_updates_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.forks_per_op", Unit: "count", Better: "lower"},
	{Name: "lp.ftran_us_per_op", Unit: "us", Better: "lower"},
	{Name: "lp.btran_us_per_op", Unit: "us", Better: "lower"},
	{Name: "lp.pricing_us_per_op", Unit: "us", Better: "lower"},
	{Name: "lp.ratio_us_per_op", Unit: "us", Better: "lower"},
	{Name: "lp.refactor_us_per_op", Unit: "us", Better: "lower"},
	{Name: "lp.phase_sum_us_per_op", Unit: "us", Better: "lower"},

	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.scrape_kb", Unit: "KiB", Better: "lower"},

	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_us_per_op", Unit: "us", Better: "lower"},
	{Name: "go.live_heap_mb", Unit: "MiB", Better: "lower"},
}
