package xpushstream

import "repro/internal/obs"

// The observability primitives are re-exported for engine users, so a
// broker embedding the engine does not import internal packages.
type (
	// Registry holds named metrics and encodes them in Prometheus text
	// format; Registry.NewMux serves /metrics and /healthz.
	Registry = obs.Registry
	// Counter is a monotonically increasing atomic counter.
	Counter = obs.Counter
	// Gauge is an atomic value that can go up and down.
	Gauge = obs.Gauge
	// Histogram is a log-linear latency histogram (quantiles to ~1.6%).
	Histogram = obs.Histogram
	// LatencySnapshot is a point-in-time histogram copy (quantiles,
	// buckets, sum, count); Stats.FilterLatency is one.
	LatencySnapshot = obs.Snapshot
	// LatencySummaryData is the p50/p90/p99/p99.9/max quantile summary.
	LatencySummaryData = obs.Summary
)

// NewRegistry returns an empty metrics registry. Register engine stats with
// RegisterMetrics, serve it with Registry.NewMux (GET /metrics + /healthz),
// or encode it directly with Registry.WritePrometheus.
func NewRegistry() *Registry { return obs.NewRegistry() }

// StatsSource is anything that can report engine statistics: *Engine or a
// caller-supplied closure (see StatsFunc).
type StatsSource interface {
	Stats() Stats
}

// StatsFunc adapts a function to StatsSource (e.g. to read whichever
// engine generation a copy-on-write swap last published).
type StatsFunc func() Stats

// Stats implements StatsSource.
func (f StatsFunc) Stats() Stats { return f() }

// RegisterMetrics registers the full engine metric set on a registry, pulled
// from src at scrape time. All metric names start with the prefix
// ("xpush" when empty):
//
//	<p>_documents_total, <p>_events_total, <p>_bytes_total,
//	<p>_matches_total, <p>_table_lookups_total, <p>_table_hits_total,
//	<p>_flushes_total, <p>_mixed_content_events_total,
//	<p>_exclusive_documents_total, <p>_skipped_elements_total  (counters)
//	<p>_states, <p>_topdown_states, <p>_avg_state_size,
//	<p>_hit_ratio                          (gauges)
//	<p>_filter_latency_seconds            (summary: p50/p90/p99 quantiles)
//	<p>_filter_latency_max_seconds        (gauge)
//
// <p>_hit_ratio is cumulative since the machine's counters last restarted;
// the ratio over a window is a query over the two table counters
// (DESIGN.md "Engine metrics"). Stats() must be safe to call at scrape
// time; the built-in engines guarantee this even while filtering.
func RegisterMetrics(r *Registry, prefix string, src StatsSource) {
	if prefix == "" {
		prefix = "xpush"
	}
	p := prefix + "_"
	counter := func(name, help string, f func(Stats) int64) {
		r.CounterFunc(p+name, help, func() int64 { return f(src.Stats()) })
	}
	gauge := func(name, help string, f func(Stats) float64) {
		r.GaugeFunc(p+name, help, func() float64 { return f(src.Stats()) })
	}
	counter("documents_total", "XML documents filtered", func(s Stats) int64 { return s.Documents })
	counter("events_total", "SAX events dispatched to the machine", func(s Stats) int64 { return s.Events })
	counter("bytes_total", "stream bytes processed", func(s Stats) int64 { return s.Bytes })
	counter("matches_total", "(document, filter) match pairs reported", func(s Stats) int64 { return s.Matches })
	counter("table_lookups_total", "transition-table lookups", func(s Stats) int64 { return s.Lookups })
	counter("table_hits_total", "transition-table hits", func(s Stats) int64 { return s.Hits })
	counter("flushes_total", "MaxStates cache flushes", func(s Stats) int64 { return s.Flushes })
	counter("exclusive_documents_total", "documents that took a machine's write lock (table miss or string-function predicate) instead of running on shared tables", func(s Stats) int64 { return s.ExclusiveDocuments })
	counter("skipped_elements_total", "elements and attributes no filter can see, checked by the scanner but never delivered to the machine", func(s Stats) int64 { return s.SkippedElements })
	counter("mixed_content_events_total", "mixed element/text content violations", func(s Stats) int64 { return s.MixedContentEvents })
	gauge("states", "lazily materialised machine states", func(s Stats) float64 { return float64(s.States) })
	gauge("topdown_states", "top-down (navigation) states", func(s Stats) float64 { return float64(s.TopDownStates) })
	gauge("avg_state_size", "mean AFA states per machine state", func(s Stats) float64 { return s.AvgStateSize })
	gauge("hit_ratio", "cumulative transition-table hit ratio (Fig. 8)", func(s Stats) float64 { return s.HitRatio })
	r.SummaryFunc(p+"filter_latency_seconds", "per-document filter latency quantiles",
		[]float64{0.5, 0.9, 0.99}, func() obs.Snapshot { return src.Stats().FilterLatency })
	gauge("filter_latency_max_seconds", "maximum per-document filter latency", func(s Stats) float64 { return s.FilterLatency.Max })
}
