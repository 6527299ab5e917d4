// Package trace is a low-overhead per-document span recorder for the
// filtering pipeline: each traced document carries a fixed-size array of
// named spans (PUBLISH receive, WAL append, fsync wait, filter, queue wait,
// DELIVER write, ...) with integer attributes, completed traces land in a
// ring buffer, and exporters render them as JSON
// (/debug/traces) or in the Chrome trace_event format for
// chrome://tracing / Perfetto.
//
// Two capture modes compose:
//
//   - head sampling: one of every N documents gets a trace (sampleEvery);
//   - tail capture: when a slow threshold is set, every document is
//     recorded and any whose end-to-end latency exceeds the threshold is
//     kept unconditionally in a separate slow ring.
//
// The cardinal constraint is that tracing must cost nothing when it is
// off: a nil *Recorder returns a nil *Ctx from Begin, and every *Ctx
// method is a nil-receiver no-op, so the hot path stays zero-allocation
// with tracing compiled in but disabled.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanID indexes a span inside its trace. The root span is always Root;
// NoSpan is returned for dropped spans (nil context or a full span table)
// and is safe to pass back into every method.
type SpanID int32

const (
	// NoSpan is the nil span id; every method accepts it and does nothing.
	NoSpan SpanID = -1
	// Root is the id of the trace's root span, created by Begin.
	Root SpanID = 0
)

const (
	// MaxSpans bounds the per-trace span array. A publish that fans out to
	// many subscribers records two spans per subscriber; past the cap
	// further spans are counted in Truncated instead of recorded, so a
	// hot document cannot make its own trace allocate.
	MaxSpans = 48
	// maxAttrs bounds the per-span attribute array.
	maxAttrs = 6

	// ringSize is the completed-trace ring capacity (head-sampled traces).
	ringSize = 256
	// slowRingSize is the slow-trace ring capacity (tail-captured traces).
	slowRingSize = 64
)

// Attr is one integer span attribute (states created, queue depth, ...).
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// Span is one named stage of a traced document's lifecycle. Start and End
// are nanosecond offsets from the trace start; End < 0 marks a span still
// open (it is closed at trace completion). Track separates concurrently
// running spans (per-subscriber delivery, per-node gate fan-out) into
// parallel rows for the Chrome exporter.
type Span struct {
	Name   string
	Parent SpanID
	Track  int32
	Start  int64
	End    int64
	attrs  [maxAttrs]Attr
	nattrs int32
}

// Dur returns the span duration (0 while the span is open).
func (s *Span) Dur() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

// Attrs returns the span's recorded attributes.
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// Ctx is one in-flight (or completed) document trace. A nil *Ctx is the
// "not traced" state: every method is a nil-safe no-op, so call sites
// thread the pointer unconditionally. Span mutation is mutex-guarded —
// delivery spans arrive from per-subscriber goroutines — but only for
// traced documents; untraced documents never touch the lock.
//
// After the last reference calls Finish the trace belongs to the recorder:
// a ring keeps it until newer traces push it out, and then it is reused for
// a later document. Readers (Traces, SlowTraces, Collect and the exporters
// behind them) get copies, taken under the recorder's lock.
type Ctx struct {
	ID      uint64
	Kind    string // root span name: "publish", "replay", "document"
	Wall    time.Time
	Total   time.Duration
	Slow    bool // kept by tail capture (total latency over the threshold)
	Sampled bool // kept by head sampling
	Remote  bool // begun by BeginRemote: ID was assigned by an upstream hop

	mu        sync.Mutex
	spans     [MaxSpans]Span
	n         int32
	truncated int32

	start  time.Time // monotonic base for span offsets
	rec    *Recorder
	refs   atomic.Int32
	tracks atomic.Int32
	rings  int32 // how many of the recorder's rings hold the trace; under Recorder.mu
}

// StartSpan opens a child span of parent and returns its id.
func (c *Ctx) StartSpan(name string, parent SpanID) SpanID {
	if c == nil {
		return NoSpan
	}
	return c.addSpan(name, parent, time.Since(c.start).Nanoseconds(), -1)
}

// StartSpanAt is StartSpan with an explicit start time (e.g. a queue-wait
// span whose wait began when the delivery was enqueued).
func (c *Ctx) StartSpanAt(name string, parent SpanID, at time.Time) SpanID {
	if c == nil {
		return NoSpan
	}
	off := at.Sub(c.start).Nanoseconds()
	if off < 0 {
		off = 0
	}
	return c.addSpan(name, parent, off, -1)
}

// AddSpan records a complete span from explicit nanosecond offsets
// (relative to the trace start), for stages timed outside the context.
func (c *Ctx) AddSpan(name string, parent SpanID, startNS, endNS int64) SpanID {
	if c == nil {
		return NoSpan
	}
	if startNS < 0 {
		startNS = 0
	}
	if endNS < startNS {
		endNS = startNS
	}
	return c.addSpan(name, parent, startNS, endNS)
}

func (c *Ctx) addSpan(name string, parent SpanID, start, end int64) SpanID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(c.n) >= MaxSpans {
		c.truncated++
		return NoSpan
	}
	id := SpanID(c.n)
	c.spans[id] = Span{Name: name, Parent: parent, Start: start, End: end}
	c.n++
	return id
}

// EndSpan closes an open span.
func (c *Ctx) EndSpan(id SpanID) {
	if c == nil || id < 0 {
		return
	}
	now := time.Since(c.start).Nanoseconds()
	c.mu.Lock()
	if id < SpanID(c.n) && c.spans[id].End < 0 {
		c.spans[id].End = now
	}
	c.mu.Unlock()
}

// SetAttr records an integer attribute on a span, overwriting an existing
// value for the same key. Attributes past the per-span cap are dropped.
func (c *Ctx) SetAttr(id SpanID, key string, val int64) {
	if c == nil || id < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if id >= SpanID(c.n) {
		return
	}
	s := &c.spans[id]
	for i := int32(0); i < s.nattrs; i++ {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	if s.nattrs < maxAttrs {
		s.attrs[s.nattrs] = Attr{Key: key, Val: val}
		s.nattrs++
	}
}

// SetTrack assigns a span to a render track (Chrome tid). Concurrent spans
// (per-subscriber delivery, per-node gate fan-out) on distinct tracks render
// as parallel rows instead of malformed nesting.
func (c *Ctx) SetTrack(id SpanID, track int32) {
	if c == nil || id < 0 {
		return
	}
	c.mu.Lock()
	if id < SpanID(c.n) {
		c.spans[id].Track = track
	}
	c.mu.Unlock()
}

// NextTrack allocates a fresh render track (track 0 is the main pipeline).
func (c *Ctx) NextTrack() int32 {
	if c == nil {
		return 0
	}
	return c.tracks.Add(1)
}

// Offset converts a time.Time into this trace's nanosecond offset
// (clamped at 0 for times before the trace started).
func (c *Ctx) Offset(t time.Time) int64 {
	if c == nil {
		return 0
	}
	off := t.Sub(c.start).Nanoseconds()
	if off < 0 {
		off = 0
	}
	return off
}

// TraceID returns the trace's id, or 0 for a nil Ctx. Zero is what the wire
// protocol treats as "untraced", so callers can tag frames unconditionally.
func (c *Ctx) TraceID() uint64 {
	if c == nil {
		return 0
	}
	return c.ID
}

// Ref adds a reference: the trace completes when every holder has called
// Finish. The publish path takes one reference per fanned-out delivery so
// the trace's total latency covers the last DELIVER write.
func (c *Ctx) Ref() {
	if c == nil {
		return
	}
	c.refs.Add(1)
}

// Finish releases one reference. The last release completes the trace:
// open spans are closed, the total latency is computed, and the trace is
// published to the recorder's rings (head-sampled, tail-captured slow, or
// recycled when neither applies).
func (c *Ctx) Finish() {
	if c == nil {
		return
	}
	if c.refs.Add(-1) != 0 {
		return
	}
	c.Total = time.Since(c.start)
	end := c.Total.Nanoseconds()
	c.mu.Lock()
	for i := int32(0); i < c.n; i++ {
		if c.spans[i].End < 0 {
			c.spans[i].End = end
		}
	}
	c.mu.Unlock()
	c.rec.complete(c)
}

// Spans returns a copy of the recorded spans. On a completed trace this is
// race-free; on an in-flight trace it is a consistent snapshot.
func (c *Ctx) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]Span, c.n)
	copy(out, c.spans[:c.n])
	c.mu.Unlock()
	return out
}

// Truncated reports how many spans were dropped by the MaxSpans cap.
func (c *Ctx) Truncated() int32 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.truncated
}

// Recorder samples, records, and retains document traces. A nil *Recorder
// is the disabled state: Begin returns nil and costs one branch.
type Recorder struct {
	sampleEvery uint64
	slow        time.Duration

	seq  atomic.Uint64
	pool sync.Pool

	// mu guards the rings: a trace goes back to the pool only when it has
	// left both, and readers copy what the rings hold.
	mu      sync.Mutex
	ring    [ringSize]*Ctx
	pos     uint64
	slowST  [slowRingSize]*Ctx
	slowPos uint64

	started atomic.Int64
	kept    atomic.Int64
	slowHit atomic.Int64
}

// New builds a recorder. sampleEvery selects head sampling (trace 1 of
// every N documents; <= 0 disables), slow selects tail capture (keep any
// document slower than the threshold; 0 disables). When both are off New
// returns nil — the fully disabled recorder.
func New(sampleEvery int, slow time.Duration) *Recorder {
	if sampleEvery <= 0 && slow <= 0 {
		return nil
	}
	r := &Recorder{slow: slow}
	if sampleEvery > 0 {
		r.sampleEvery = uint64(sampleEvery)
	}
	r.pool.New = func() any { return new(Ctx) }
	return r
}

// Enabled reports whether any capture mode is active.
func (r *Recorder) Enabled() bool { return r != nil }

// SampleEvery returns the head-sampling period (0 = off).
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.sampleEvery)
}

// SlowThreshold returns the tail-capture latency threshold (0 = off).
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.slow
}

// Begin starts a trace for the next document, or returns nil when this
// document is not recorded (recorder disabled, or not head-sampled with
// tail capture off). kind names the root span. A disabled recorder returns
// before reading the clock.
func (r *Recorder) Begin(kind string) *Ctx {
	if r == nil {
		return nil
	}
	return r.BeginAt(kind, time.Now())
}

// BeginAt is Begin with an explicit start time, for pipelines that know
// the document's arrival time before deciding to trace it (the durable
// replay pump times the log read that precedes the trace decision).
func (r *Recorder) BeginAt(kind string, at time.Time) *Ctx {
	if r == nil {
		return nil
	}
	seq := r.seq.Add(1)
	sampled := r.sampleEvery > 0 && seq%r.sampleEvery == 0
	if !sampled && r.slow <= 0 {
		return nil
	}
	r.started.Add(1)
	c := r.pool.Get().(*Ctx)
	*c = Ctx{ID: seq, Kind: kind, Wall: at, Sampled: sampled, start: at, rec: r}
	c.refs.Store(1)
	c.addSpan(kind, NoSpan, 0, -1)
	return c
}

// BeginRemote starts a trace for a document whose trace id was assigned by
// an upstream hop (an xpushgate that sampled it at ingress). Propagated
// traces bypass local head sampling — the upstream recorder already made
// the keep decision — so the document is always captured (when the local
// recorder is enabled at all) and retained in the sampled ring under the
// carried id, letting the cluster merge exporter stitch both hops by id.
func (r *Recorder) BeginRemote(kind string, id uint64, at time.Time) *Ctx {
	if r == nil {
		return nil
	}
	r.started.Add(1)
	c := r.pool.Get().(*Ctx)
	*c = Ctx{ID: id, Kind: kind, Wall: at, Sampled: true, Remote: true, start: at, rec: r}
	c.refs.Store(1)
	c.addSpan(kind, NoSpan, 0, -1)
	return c
}

// SpanCost returns the duration and one integer attribute of the most
// recently recorded span with the given name — the per-query profiler's
// window into the filter span's machine telemetry (states_created, ...)
// without copying the span table. attrVal is 0 when the span lacks the
// attribute; ok is false when no such span exists (or c is nil).
func (c *Ctx) SpanCost(name, attrKey string) (durNS, attrVal int64, ok bool) {
	if c == nil {
		return 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := c.n - 1; i >= 0; i-- {
		s := &c.spans[i]
		if s.Name != name {
			continue
		}
		durNS = s.End - s.Start
		if durNS < 0 {
			durNS = 0
		}
		for j := int32(0); j < s.nattrs; j++ {
			if s.attrs[j].Key == attrKey {
				attrVal = s.attrs[j].Val
				break
			}
		}
		return durNS, attrVal, true
	}
	return 0, 0, false
}

// complete publishes a finished trace into the rings that keep it. A trace
// kept by neither mode returns to the pool at once; one a ring pushes out
// returns once no ring holds it.
func (r *Recorder) complete(c *Ctx) {
	c.Slow = r.slow > 0 && c.Total >= r.slow
	if !c.Slow && !c.Sampled {
		c.rec = nil
		r.pool.Put(c)
		return
	}
	r.kept.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.Slow {
		r.slowHit.Add(1)
		r.keep(r.slowST[:], &r.slowPos, c)
	}
	if c.Sampled {
		r.keep(r.ring[:], &r.pos, c)
	}
}

// keep stores c in the ring's oldest slot, recycling the trace it replaces
// if no other ring holds that one. The caller holds r.mu.
func (r *Recorder) keep(ring []*Ctx, pos *uint64, c *Ctx) {
	slot := &ring[*pos%uint64(len(ring))]
	*pos++
	if old := *slot; old != nil {
		if old.rings--; old.rings == 0 {
			old.rec = nil
			r.pool.Put(old)
		}
	}
	c.rings++
	*slot = c
}

// Traces returns copies of the retained head-sampled traces, oldest first.
func (r *Recorder) Traces() []*Ctx { return r.copies(true, false) }

// SlowTraces returns copies of the retained tail-captured traces, oldest
// first.
func (r *Recorder) SlowTraces() []*Ctx { return r.copies(false, true) }

// Collect returns a copy of every retained trace exactly once (traces can
// sit in both rings), ordered oldest first — the Chrome exporter's input.
func (r *Recorder) Collect() []*Ctx {
	out := r.copies(true, true)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Wall.Before(out[j-1].Wall); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// copies reads the chosen rings oldest first, under r.mu, and returns a copy
// of each trace they hold, once, that recycling cannot reach.
func (r *Recorder) copies(sampled, slow bool) []*Ctx {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[*Ctx]bool{}
	var out []*Ctx
	read := func(ring []*Ctx, pos uint64) {
		for i := range ring {
			c := ring[(pos+uint64(i))%uint64(len(ring))]
			if c != nil && !seen[c] {
				seen[c] = true
				out = append(out, &Ctx{ID: c.ID, Kind: c.Kind, Wall: c.Wall, Total: c.Total, Slow: c.Slow,
					Sampled: c.Sampled, Remote: c.Remote, spans: c.spans, n: c.n, truncated: c.truncated})
			}
		}
	}
	if sampled {
		read(r.ring[:], r.pos)
	}
	if slow {
		read(r.slowST[:], r.slowPos)
	}
	return out
}

// RecorderStats summarises the recorder's activity.
type RecorderStats struct {
	Started int64 `json:"started"` // traces begun (sampled or slow-candidate)
	Kept    int64 `json:"kept"`    // traces retained in a ring
	Slow    int64 `json:"slow"`    // traces kept by tail capture
}

// Stats returns the recorder's counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	return RecorderStats{
		Started: r.started.Load(),
		Kept:    r.kept.Load(),
		Slow:    r.slowHit.Load(),
	}
}
