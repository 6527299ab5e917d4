package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricKind selects the Prometheus TYPE line emitted for a metric.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindSummary
	kindGaugeVec
	kindSummaryVec
	kindCounterVec
)

// Labeled is one sample of a labeled gauge or counter family: Labels is the
// rendered label set without braces (`name="orders"`), Value the sample
// value.
type Labeled struct {
	Labels string
	Value  float64
}

// metric is one registered time series family.
type metric struct {
	name string
	help string
	kind metricKind

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	counterFn func() int64
	snapFn    func() Snapshot
	vecFn     func() []Labeled
	svecFn    func() []LabeledSnapshot
	quantiles []float64
}

// LabeledSnapshot is one member of a labeled summary family: Labels is the
// rendered label set without braces (`node="10.0.0.1:9310"`), Snap the
// member's observation snapshot.
type LabeledSnapshot struct {
	Labels string
	Snap   Snapshot
}

// Registry holds named metrics and encodes them in the Prometheus text
// exposition format. Registration is typically done once at startup;
// WritePrometheus may be called concurrently with observations.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// CounterFunc registers a counter whose value is pulled at encoding time.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.add(&metric{name: name, help: help, kind: kindCounter, counterFn: f})
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is pulled at encoding time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.add(&metric{name: name, help: help, kind: kindGauge, gaugeFn: f})
}

// GaugeVecFunc registers a labeled gauge family pulled at encoding time:
// f returns one Labeled sample per label set (e.g. one per durable
// subscription). The family may be empty on a given scrape; only the TYPE
// and HELP lines are emitted then.
func (r *Registry) GaugeVecFunc(name, help string, f func() []Labeled) {
	r.add(&metric{name: name, help: help, kind: kindGaugeVec, vecFn: f})
}

// CounterVecFunc is GaugeVecFunc for a labeled family whose every member
// only grows (per-subscriber or per-query totals): the same encoding, typed
// counter.
func (r *Registry) CounterVecFunc(name, help string, f func() []Labeled) {
	r.add(&metric{name: name, help: help, kind: kindCounterVec, vecFn: f})
}

// Histogram registers an existing histogram, encoded with cumulative
// le-labelled buckets plus _sum and _count.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.HistogramFunc(name, help, h.Snapshot)
}

// HistogramFunc registers a histogram pulled as a Snapshot at encoding time
// (for histograms aggregated across workers on demand).
func (r *Registry) HistogramFunc(name, help string, f func() Snapshot) {
	r.add(&metric{name: name, help: help, kind: kindHistogram, snapFn: f})
}

// SummaryFunc registers a quantile summary pulled as a Snapshot at encoding
// time: the snapshot's estimated quantiles are emitted as a Prometheus
// summary ({quantile="..."} series plus _sum and _count).
func (r *Registry) SummaryFunc(name, help string, quantiles []float64, f func() Snapshot) {
	if len(quantiles) == 0 {
		quantiles = []float64{0.5, 0.9, 0.99}
	}
	r.add(&metric{name: name, help: help, kind: kindSummary, snapFn: f, quantiles: quantiles})
}

// SummaryVecFunc registers a labeled summary family pulled at encoding
// time: f returns one LabeledSnapshot per label set (e.g. one per cluster
// node). Each member is emitted as a Prometheus summary — {labels,
// quantile="..."} series plus _sum{labels} and _count{labels}.
func (r *Registry) SummaryVecFunc(name, help string, quantiles []float64, f func() []LabeledSnapshot) {
	if len(quantiles) == 0 {
		quantiles = []float64{0.5, 0.9, 0.99}
	}
	r.add(&metric{name: name, help: help, kind: kindSummaryVec, svecFn: f, quantiles: quantiles})
}

// WritePrometheus encodes every registered metric in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	for _, m := range metrics {
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (m *metric) write(w io.Writer) error {
	typ := [...]string{"counter", "gauge", "histogram", "summary", "gauge", "summary", "counter"}[m.kind]
	if m.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, strings.ReplaceAll(m.help, "\n", " ")); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ); err != nil {
		return err
	}
	switch m.kind {
	case kindCounter:
		v := int64(0)
		if m.counter != nil {
			v = m.counter.Value()
		} else if m.counterFn != nil {
			v = m.counterFn()
		}
		_, err := fmt.Fprintf(w, "%s %d\n", m.name, v)
		return err
	case kindGauge:
		v := 0.0
		if m.gauge != nil {
			v = m.gauge.Value()
		} else if m.gaugeFn != nil {
			v = m.gaugeFn()
		}
		_, err := fmt.Fprintf(w, "%s %s\n", m.name, fmtFloat(v))
		return err
	case kindGaugeVec, kindCounterVec:
		for _, s := range m.vecFn() {
			if _, err := fmt.Fprintf(w, "%s{%s} %s\n", m.name, s.Labels, fmtFloat(s.Value)); err != nil {
				return err
			}
		}
		return nil
	case kindHistogram:
		// Each bound is a bucket edge, so every le count is exact.
		s := m.snapFn()
		bounds := BucketBounds()
		var cum uint64
		k := 0
		for j := 0; j <= len(bounds); j++ {
			le, top := "+Inf", len(s.Buckets)-1
			if j < len(bounds) {
				le, top = fmtFloat(bounds[j]), bucketIndex(1000<<j)
			}
			for ; k <= top && k < len(s.Buckets); k++ {
				cum += s.Buckets[k]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", m.name, fmtFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", m.name, s.Count)
		return err
	case kindSummaryVec:
		for _, ls := range m.svecFn() {
			for _, q := range m.quantiles {
				if _, err := fmt.Fprintf(w, "%s{%s,quantile=%q} %s\n", m.name, ls.Labels, fmtFloat(q), fmtFloat(ls.Snap.Quantile(q))); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum{%s} %s\n", m.name, ls.Labels, fmtFloat(ls.Snap.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count{%s} %d\n", m.name, ls.Labels, ls.Snap.Count); err != nil {
				return err
			}
		}
		return nil
	case kindSummary:
		s := m.snapFn()
		for _, q := range m.quantiles {
			if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", m.name, fmtFloat(q), fmtFloat(s.Quantile(q))); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", m.name, fmtFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", m.name, s.Count)
		return err
	}
	return nil
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// round-trippable representation.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
