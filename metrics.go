package xpushstream

import (
	"sync"

	"repro/internal/obs"
)

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
//	<p>_hit_ratio, <p>_window_hit_ratio, <p>_window_states_added (gauges)
//	<p>_filter_latency_seconds            (summary: p50/p90/p99 quantiles)
//	<p>_filter_latency_seconds_max        (gauge)
//	<p>_filter_latency_histogram_seconds  (histogram: log buckets)
//
// The two window gauges cover the interval since their previous scrape
// (DESIGN.md "Window gauges"); a second scraper of the same registry splits
// that interval with the first. Stats() must be safe to call at scrape time;
// the built-in engines guarantee this even while filtering.
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
	var w window
	gauge("window_hit_ratio", "transition-table hit ratio since the previous scrape with a lookup (warm-machine view)", w.hitRatio)
	gauge("window_states_added", "machine states added since the previous scrape", w.statesAdded)
	r.SummaryFunc(p+"filter_latency_seconds", "per-document filter latency quantiles",
		[]float64{0.5, 0.9, 0.99}, func() obs.Snapshot { return src.Stats().FilterLatency })
	gauge("filter_latency_seconds_max", "maximum per-document filter latency", func(s Stats) float64 { return s.FilterLatency.Max })
	r.HistogramFunc(p+"filter_latency_histogram_seconds", "per-document filter latency (log buckets)",
		func() obs.Snapshot { return src.Stats().FilterLatency })
}

// window turns cumulative counters into the change since the previous
// scrape. A counter that went down was reset (a swap to a fresh base
// machine, Train, a MaxStates flush), and by Prometheus's counter-reset rule
// its whole current value is the change.
type window struct {
	mu            sync.Mutex
	lookups, hits int64
	ratio         float64 // the last interval's, kept through idle intervals
	states        int64
}

func (w *window) hitRatio(s Stats) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	lookups, hits := s.Lookups-w.lookups, s.Hits-w.hits
	// Lookups and hits restart together; more hits than lookups is a restart
	// that counted past the old totals before this scrape.
	if lookups < 0 || hits < 0 || hits > lookups {
		lookups, hits = s.Lookups, s.Hits
	}
	w.lookups, w.hits = s.Lookups, s.Hits
	if lookups > 0 {
		w.ratio = float64(hits) / float64(lookups)
	}
	return w.ratio
}

func (w *window) statesAdded(s Stats) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	added := int64(s.States) - w.states
	if added < 0 {
		added = int64(s.States)
	}
	w.states = int64(s.States)
	return float64(added)
}
