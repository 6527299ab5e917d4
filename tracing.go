package xpushstream

import (
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Re-exported tracing types, mirroring the obs re-exports in metrics.go so
// applications embedding the engine can trace documents without importing
// the internal package. A nil *TraceRecorder / *TraceCtx is the disabled
// state: every method is a no-op and the filtering hot path stays
// zero-allocation.
type (
	// TraceRecorder samples and retains per-document traces.
	TraceRecorder = trace.Recorder
	// TraceCtx is one in-flight document trace.
	TraceCtx = trace.Ctx
	// TraceSpanID identifies a span within its trace.
	TraceSpanID = trace.SpanID
)

// TraceRoot is the id of a trace's root span.
const TraceRoot = trace.Root

// NewTraceRecorder builds a recorder: sampleEvery picks head sampling
// (trace 1 of every N documents, <= 0 off), slow picks tail capture (keep
// any document slower than the threshold, 0 off). Both off returns nil —
// fully disabled tracing.
func NewTraceRecorder(sampleEvery int, slow time.Duration) *TraceRecorder {
	return trace.New(sampleEvery, slow)
}

// layerSpanNames gives small layer counts a constant span name without a
// per-document allocation; deeper layer stacks share the last name and are
// distinguished by their `layer` attribute.
var layerSpanNames = [...]string{
	"layer0", "layer1", "layer2", "layer3", "layer4", "layer5", "layer6", "layer7",
}

func layerSpanName(li int) string {
	if li < len(layerSpanNames) {
		return layerSpanNames[li]
	}
	return "layerN"
}

// sumCounters adds up the machine-telemetry counters across layers.
func sumCounters(layers []*core.Machine) (c [4]int64) {
	for _, m := range layers {
		b, f, mt, ev := m.Counters()
		c[0] += b
		c[1] += f
		c[2] += mt
		c[3] += ev
	}
	return c
}

// traceStartDocument opens the per-document filter span and captures the
// machine-counter baselines for the end-of-document deltas.
func (d *byteDriver) traceStartDocument() {
	d.tcSpan = d.tc.StartSpan("filter", d.tcParent)
	if cap(d.layerNS) < len(d.layers) {
		d.layerNS = make([]int64, len(d.layers))
	}
	d.layerNS = d.layerNS[:len(d.layers)]
	for i := range d.layerNS {
		d.layerNS[i] = 0
	}
	d.ctrBase = sumCounters(d.layers)
}

// traceEndDocument closes the filter span: machine telemetry deltas become
// span attributes (the machines' counters are shared, so documents filtered
// concurrently with this one are in its deltas too), and each layer's accumulated event time becomes a child
// span (stacked sequentially — layers run in lockstep per event, so the
// per-layer times are exclusive and sum to the machine portion of the
// filter span).
func (d *byteDriver) traceEndDocument(matches int) {
	tc, sp := d.tc, d.tcSpan
	now := sumCounters(d.layers)
	tc.SetAttr(sp, "states_created", now[0]-d.ctrBase[0])
	tc.SetAttr(sp, "table_flushes", now[1]-d.ctrBase[1])
	tc.SetAttr(sp, "matches", int64(matches))
	tc.SetAttr(sp, "events", now[3]-d.ctrBase[3])
	cur := tc.Offset(d.docStart)
	for li, ns := range d.layerNS {
		id := tc.AddSpan(layerSpanName(li), sp, cur, cur+ns)
		tc.SetAttr(id, "layer", int64(li))
		cur += ns
	}
	tc.EndSpan(sp)
}
