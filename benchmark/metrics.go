package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef declares one metric the benchmark prints. The same table is
// what BENCHMARK.json lists; benchmark_test.go holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, per workload. Every
// workload reports every one of them, and none can read 0. The
// per-class latencies and failed_share of the issue's table are
// per-layer metrics here (stmt.*): a class absent from a workload has
// no latency, and failed_share is 0 on a passing run, so neither can
// carry a bound under the driver's contract; failures are reported
// through the result's attempted/failed/correct keys instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_sps", "1/s", "higher", 0.25},
	{"stmt_p50_us", "us", "lower", 0.20},
	{"stmt_tail_us", "us", "lower", 0.25},
	{"allocs_per_stmt", "count", "lower", 0.05},
	{"bytes_per_stmt", "B", "lower", 0.15},
	{"live_heap_mb", "MiB", "lower", 0.05},
}

// perLayer are the traced run's numbers. *_ns* and *_s metrics come
// from the ladder (ladder.go); plain counts are registry snapshot deltas
// around the traced pass and repeat exactly on single-session workloads.
var perLayer = []metricDef{
	{"stmt.first_p50_us", "us", "lower", 0},
	{"stmt.repeat_p50_us", "us", "lower", 0},
	{"stmt.update_p50_us", "us", "lower", 0},
	{"stmt.undo_p50_us", "us", "lower", 0},
	{"stmt.failed_share", "ratio", "lower", 0},

	{"query.parse_ns", "ns", "lower", 0},
	{"query.parse_allocs", "count", "lower", 0},
	{"query.overhead_ns", "ns", "lower", 0},
	{"query.overhead_allocs", "count", "lower", 0},

	{"core.gate_acquire_ns", "ns", "lower", 0},
	{"core.gate_wait_share", "ratio", "lower", 0},
	{"core.gate_admitted", "count", "higher", 0},
	{"core.gate_shed", "count", "lower", 0},
	{"core.metrics_snapshot_ns", "ns", "lower", 0},
	{"core.metrics_snapshot_allocs", "count", "lower", 0},

	{"obs.span_ns", "ns", "lower", 0},
	{"obs.fold_ns", "ns", "lower", 0},
	{"obs.ring_add_ns", "ns", "lower", 0},
	{"obs.eventlog_ns", "ns", "lower", 0},
	{"obs.ticks_per_stmt", "count", "lower", 0},
	{"obs.ns_per_tick", "ns", "lower", 0},

	{"view.compute_hit_ns", "ns", "lower", 0},
	{"view.column_ns_per_row", "ns", "lower", 0},
	{"view.update_ns_per_row", "ns", "lower", 0},
	{"view.undo_ns", "ns", "lower", 0},
	{"view.column_scans", "count", "lower", 0},
	{"view.build_s", "s", "lower", 0},

	{"summary.hit_ns", "ns", "lower", 0},
	{"summary.first_moment_us", "us", "lower", 0},
	{"summary.first_order_us", "us", "lower", 0},
	{"summary.first_freq_us", "us", "lower", 0},
	{"summary.onupdate_ns_per_delta", "ns", "lower", 0},
	{"summary.hits", "count", "higher", 0},
	{"summary.misses", "count", "lower", 0},
	{"summary.stale_refill", "count", "lower", 0},
	{"summary.incremental", "count", "higher", 0},
	{"summary.rebuilds", "count", "lower", 0},
	{"summary.hit_ratio", "ratio", "higher", 0},
	{"summary.passes_per_first", "ratio", "lower", 0},

	{"index.get_ns", "ns", "lower", 0},

	{"incr.build_ns_per_row", "ns", "lower", 0},
	{"incr.apply_ns", "ns", "lower", 0},

	{"medwin.build_ns_per_row", "ns", "lower", 0},
	{"medwin.slide_ns", "ns", "lower", 0},
	{"medwin.slides", "count", "higher", 0},
	{"medwin.rebuilds", "count", "lower", 0},

	{"exec.fold_moments_ns_per_row", "ns", "lower", 0},
	{"exec.pool_moments_ns_per_row", "ns", "lower", 0},
	{"exec.fold_freq_ns_per_row", "ns", "lower", 0},
	{"exec.fold_runs_ns_per_run", "ns", "lower", 0},
	{"exec.chunks", "count", "lower", 0},
	{"exec.parallel_share", "ratio", "higher", 0},
	{"exec.run_strategy_hits", "count", "higher", 0},
	{"exec.rows_decoded", "count", "lower", 0},

	{"stats.histogram_ns_per_row", "ns", "lower", 0},
	{"stats.correlate_ns_per_row", "ns", "lower", 0},
	{"stats.quantile_ns_per_row", "ns", "lower", 0},
	{"stats.quantile_pool_ns_per_row", "ns", "lower", 0},

	{"dataset.numeric_ns_per_row", "ns", "lower", 0},

	{"colstore.plain_read_ns_per_row", "ns", "lower", 0},
	{"colstore.rle_read_ns_per_row", "ns", "lower", 0},
	{"colstore.run_read_ns_per_run", "ns", "lower", 0},
	{"colstore.update_ns", "ns", "lower", 0},
	{"colstore.load_ns_per_cell", "ns", "lower", 0},
	{"colstore.bytes_per_user_byte", "ratio", "lower", 0},

	{"storage.pool_hit_ns", "ns", "lower", 0},
	{"storage.pool_miss_ns", "ns", "lower", 0},
	{"storage.device_read_ns", "ns", "lower", 0},
	{"storage.device_write_ns", "ns", "lower", 0},
	{"storage.checksum_ns", "ns", "lower", 0},
	{"storage.pool_hit_ratio", "ratio", "higher", 0},
	{"storage.pool_evictions", "count", "lower", 0},
	{"storage.page_reads", "count", "lower", 0},
	{"storage.page_writes", "count", "lower", 0},
	{"storage.pages_per_first", "ratio", "lower", 0},

	{"shard.moments_ns", "ns", "lower", 0},
	{"shard.freq_ns", "ns", "lower", 0},
	{"shard.scatters", "count", "lower", 0},
	{"shard.scatters_per_repeat", "ratio", "lower", 0},
	{"shard.build_s", "s", "lower", 0},

	{"tape.read_ns_per_row", "ns", "lower", 0},
	{"relalg.select_ns_per_row", "ns", "lower", 0},
	{"relalg.sort_ns_per_row", "ns", "lower", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
}

// metricValue is one printed number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill renders vals under defs: every declared metric appears exactly
// once, a metric the run did not produce reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileUs returns the p-th percentile (nearest rank) of sorted
// nanosecond latencies, in microseconds.
func percentileUs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(sorted[rank]) / 1e3
}

// beyond is how many of n samples lie above percentileUs's p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// sorted sorts latencies in place and returns them.
func sorted(xs []int64) []int64 {
	slices.Sort(xs)
	return xs
}
