package trace

import (
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// JSONSpan and JSONTrace shape the /debug/traces payload. They are exported
// so a downstream consumer — the xpushgate cluster merge exporter — can
// decode a node's payload and re-emit its spans inside a merged trace.
type JSONSpan struct {
	Name    string `json:"name"`
	Parent  SpanID `json:"parent"`
	Track   int32  `json:"track,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

type JSONTrace struct {
	ID        uint64     `json:"id"`
	Kind      string     `json:"kind"`
	Wall      time.Time  `json:"wall"`
	TotalNS   int64      `json:"total_ns"`
	Slow      bool       `json:"slow"`
	Sampled   bool       `json:"sampled"`
	Remote    bool       `json:"remote,omitempty"`
	Truncated int32      `json:"truncated_spans,omitempty"`
	Spans     []JSONSpan `json:"spans"`
}

// TracesPayload is the full /debug/traces document.
type TracesPayload struct {
	Enabled     bool          `json:"enabled"`
	SampleEvery int           `json:"sample_every"`
	SlowNS      int64         `json:"slow_threshold_ns"`
	Stats       RecorderStats `json:"stats"`
	Traces      []JSONTrace   `json:"traces"`
	SlowTraces  []JSONTrace   `json:"slow_traces"`
}

// ToJSON renders one trace in the /debug/traces shape.
func ToJSON(c *Ctx) JSONTrace {
	spans := c.Spans()
	js := make([]JSONSpan, len(spans))
	for i := range spans {
		s := &spans[i]
		js[i] = JSONSpan{
			Name:    s.Name,
			Parent:  s.Parent,
			Track:   s.Track,
			StartNS: s.Start,
			DurNS:   s.Dur().Nanoseconds(),
		}
		if a := s.Attrs(); len(a) > 0 {
			js[i].Attrs = append([]Attr(nil), a...)
		}
	}
	return JSONTrace{
		ID:        c.ID,
		Kind:      c.Kind,
		Wall:      c.Wall,
		TotalNS:   c.Total.Nanoseconds(),
		Slow:      c.Slow,
		Sampled:   c.Sampled,
		Remote:    c.Remote,
		Truncated: c.Truncated(),
		Spans:     js,
	}
}

// Payload snapshots the recorder state in the /debug/traces shape. Safe on
// a nil recorder (reports enabled=false).
func (r *Recorder) Payload() TracesPayload {
	p := TracesPayload{
		Enabled:     r.Enabled(),
		SampleEvery: r.SampleEvery(),
		SlowNS:      r.SlowThreshold().Nanoseconds(),
		Traces:      []JSONTrace{},
		SlowTraces:  []JSONTrace{},
	}
	if r == nil {
		return p
	}
	p.Stats = r.Stats()
	for _, c := range r.Traces() {
		p.Traces = append(p.Traces, ToJSON(c))
	}
	for _, c := range r.SlowTraces() {
		p.SlowTraces = append(p.SlowTraces, ToJSON(c))
	}
	return p
}

// Handler returns the /debug/traces HTTP handler: a JSON document with the
// recorder config, counters, the last N head-sampled traces, and the
// retained slow traces. Safe on a nil recorder (reports enabled=false).
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Payload())
	})
}

// WriteChrome renders traces in the Chrome trace_event JSON array format
// ("X" complete events, microsecond timestamps), loadable in
// chrome://tracing and https://ui.perfetto.dev. Each trace becomes one
// process (pid = trace id) and each span track one thread, so concurrent
// delivery spans render as parallel rows. It is MergeChrome with no node
// hops.
func WriteChrome(w io.Writer, traces []*Ctx) error {
	js := make([]JSONTrace, len(traces))
	for i, c := range traces {
		js[i] = ToJSON(c)
	}
	return MergeChrome(w, js, nil)
}

// WriteChrome dumps every retained trace in Chrome trace_event format.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return WriteChrome(w, r.Collect())
}
