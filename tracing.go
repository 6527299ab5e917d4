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

// machineCounters are the machine counters a filter span reports deltas
// of: bottom-up states, table flushes and events.
type machineCounters struct {
	states, flushes, events int64
}

func countersOf(m *core.Machine) (c machineCounters) {
	c.states, c.flushes, c.events = m.Counters()
	return c
}

// traceStartDocument opens the per-document filter span and captures the
// machine-counter baselines for the end-of-document deltas.
func (d *byteDriver) traceStartDocument() {
	d.tcSpan = d.tc.StartSpan("filter", d.tcParent)
	d.ctrBase = countersOf(d.m)
}

// traceEndDocument closes the filter span with the machine telemetry as
// attributes. The counters are shared by every cursor on a machine, so
// documents filtered concurrently with this one are in its deltas too.
func (d *byteDriver) traceEndDocument(matches int) {
	tc, sp := d.tc, d.tcSpan
	now := countersOf(d.m)
	tc.SetAttr(sp, "states_created", now.states-d.ctrBase.states)
	tc.SetAttr(sp, "table_flushes", now.flushes-d.ctrBase.flushes)
	tc.SetAttr(sp, "matches", int64(matches))
	tc.SetAttr(sp, "events", now.events-d.ctrBase.events)
	tc.EndSpan(sp)
}
