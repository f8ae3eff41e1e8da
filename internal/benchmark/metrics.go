package benchmark

import (
	"math"
	"sort"
)

// Metric describes one reported quantity.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Gated marks the end-to-end metrics held to Bound when a change is
	// judged: reported on every workload, never zero, and steady within a
	// third of Bound from run to run on the seed host. -compare fails when
	// one regresses.
	Gated bool
	// Listed marks the end-to-end metrics BENCHMARK.json lists, which a
	// single-workload run reports: the gated ones, and setup_s, which that
	// file's format requires of every benchmark.
	Listed bool
}

// EndToEnd lists the end-to-end metrics, in print order. The ungated ones
// are printed and compared but fail no comparison: some apply to some
// workloads only or are zero by design, and the timings, setup_s among
// them, drift more from run to run on the shared seed host than a 10%
// bound allows (README.md gives the measurement). BENCHMARK.json still
// lists setup_s, with the widest bound its format allows.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Listed: true},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "alloc_mb_per_req", Unit: "MB", Better: "lower", Bound: 0.10, Gated: true, Listed: true},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "verdict_complete_ratio", Unit: "ratio", Better: "higher", Bound: 0},
}

// PerLayer lists the per-layer metrics of the traced run, in print order.
// README.md maps each to the end-to-end metric and workload it should
// move.
var PerLayer = []Metric{
	{Name: "lang.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "lang.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.print_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.kbytes", Unit: "kB", Better: "lower"},
	{Name: "interp.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.steps", Unit: "count", Better: "lower"},
	{Name: "pmem.track_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "pmcheck.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "pmcheck.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "pmcheck.reports", Unit: "count", Better: "lower"},
	{Name: "alias.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fixes", Unit: "count", Better: "lower"},
	{Name: "core.revalidate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.static_repair_ms", Unit: "ms", Better: "lower"},
	{Name: "core.repair_mt_ms", Unit: "ms", Better: "lower"},
	{Name: "static.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "static.summary_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "crashsim.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "crashsim.schedules", Unit: "count", Better: "lower"},
	{Name: "crashsim.images_built", Unit: "count", Better: "lower"},
	{Name: "crashsim.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "crashsim.pages_copied", Unit: "count", Better: "lower"},
	{Name: "crashsim.rounds", Unit: "count", Better: "lower"},
	{Name: "optimize.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "optimize.candidates", Unit: "count", Better: "lower"},
	{Name: "optimize.applied_ratio", Unit: "ratio", Better: "higher"},
	{Name: "schedule.explore_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.explored", Unit: "count", Better: "lower"},
	{Name: "schedule.pruned", Unit: "count", Better: "higher"},
	{Name: "schedule.truncated_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cli.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "cli.response_kbytes", Unit: "kB", Better: "lower"},
	{Name: "server.inproc_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.response_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.artifact_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.verdict_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.summary_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricByName finds an end-to-end or per-layer metric.
func metricByName(name string) (Metric, bool) {
	for _, set := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// quantile returns the nearest-rank q-quantile of ascending values: the
// smallest sample with at least q of the samples at or below it. A
// workload whose requests cluster by key keeps the rank inside one
// cluster, so the quantile does not jump between clusters from run to run.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailPercentiles lists the latency percentiles n samples support: the
// median, and each higher percentile with at least ten samples beyond it.
func tailPercentiles(n int) []int {
	out := []int{50}
	for _, p := range []int{90, 99} {
		if n*(100-p) >= 10*100 {
			out = append(out, p)
		}
	}
	return out
}

// median returns the middle of values (the mean of the two middle ones
// for an even count), without reordering values.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// quartiles returns the first quartile, median and third quartile of
// values by linear interpolation between order statistics.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
