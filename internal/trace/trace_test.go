package trace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestDisabledRecorderIsNil(t *testing.T) {
	if r := New(0, 0); r != nil {
		t.Fatalf("New(0,0) = %v, want nil", r)
	}
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if tc := r.Begin("publish"); tc != nil {
		t.Fatalf("nil recorder Begin = %v, want nil", tc)
	}
	if got := r.Traces(); got != nil {
		t.Fatalf("nil recorder Traces = %v", got)
	}
	if got := r.SlowTraces(); got != nil {
		t.Fatalf("nil recorder SlowTraces = %v", got)
	}
	if s := r.Stats(); s != (RecorderStats{}) {
		t.Fatalf("nil recorder Stats = %+v", s)
	}
}

func TestNilCtxMethodsAreNoOps(t *testing.T) {
	var c *Ctx
	id := c.StartSpan("x", Root)
	if id != NoSpan {
		t.Fatalf("nil ctx StartSpan = %d, want NoSpan", id)
	}
	c.EndSpan(id)
	c.SetAttr(id, "k", 1)
	c.SetTrack(id, 3)
	c.AddSpan("y", Root, 0, 10)
	c.StartSpanAt("z", Root, time.Now())
	c.Ref()
	c.Finish()
	if c.NextTrack() != 0 {
		t.Fatal("nil ctx NextTrack != 0")
	}
	if c.Offset(time.Now()) != 0 {
		t.Fatal("nil ctx Offset != 0")
	}
	if c.Spans() != nil {
		t.Fatal("nil ctx Spans != nil")
	}
}

// The disabled path must not allocate: this is the hot-path contract that
// keeps TestWarmRunZeroAllocs green with tracing compiled in.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		tc := r.Begin("publish")
		sp := tc.StartSpan("filter", Root)
		tc.SetAttr(sp, "matches", 3)
		tc.EndSpan(sp)
		tc.Ref()
		tc.Finish()
		tc.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f allocs/op, want 0", allocs)
	}
}

// Head sampling with period N must also skip allocation on unsampled
// documents when tail capture is off.
func TestUnsampledPathZeroAllocs(t *testing.T) {
	r := New(1<<30, 0) // effectively never samples within the run
	r.Begin("warm")    // consume seq 1 alignment
	allocs := testing.AllocsPerRun(1000, func() {
		tc := r.Begin("publish")
		if tc != nil {
			t.Fatal("unexpected sampled trace")
		}
		tc.Finish()
	})
	if allocs != 0 {
		t.Fatalf("unsampled tracing allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestHeadSamplingPeriod(t *testing.T) {
	r := New(4, 0)
	var sampled int
	for i := 0; i < 40; i++ {
		if tc := r.Begin("doc"); tc != nil {
			sampled++
			tc.Finish()
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 with period 4, want 10", sampled)
	}
	if got := len(r.Traces()); got != 10 {
		t.Fatalf("ring holds %d traces, want 10", got)
	}
}

func TestSpanRecordingAndFinish(t *testing.T) {
	r := New(1, 0)
	tc := r.Begin("publish")
	if tc == nil {
		t.Fatal("expected sampled trace with period 1")
	}
	wal := tc.StartSpan("wal_append", Root)
	tc.SetAttr(wal, "bytes", 128)
	tc.SetAttr(wal, "bytes", 256) // overwrite, not duplicate
	tc.EndSpan(wal)
	fl := tc.StartSpan("filter", Root)
	tc.SetAttr(fl, "matches", 2)
	tc.EndSpan(fl)
	open := tc.StartSpan("deliver_write", Root) // left open: closed by Finish
	_ = open
	tc.Finish()

	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Total <= 0 {
		t.Fatalf("Total = %v, want > 0", got.Total)
	}
	spans := got.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4 (root + 3)", len(spans))
	}
	if spans[0].Name != "publish" || spans[0].Parent != NoSpan {
		t.Fatalf("root span = %+v", spans[0])
	}
	attrs := spans[1].Attrs()
	if len(attrs) != 1 || attrs[0] != (Attr{Key: "bytes", Val: 256}) {
		t.Fatalf("wal attrs = %+v, want single bytes=256", attrs)
	}
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) not closed: start=%d end=%d", i, s.Name, s.Start, s.End)
		}
	}
}

func TestRefCountingDelaysCompletion(t *testing.T) {
	r := New(1, 0)
	tc := r.Begin("publish")
	tc.Ref() // a pending delivery holds the trace open
	tc.Finish()
	if got := len(r.Traces()); got != 0 {
		t.Fatalf("trace completed with an outstanding ref (ring=%d)", got)
	}
	tc.Finish()
	if got := len(r.Traces()); got != 1 {
		t.Fatalf("trace not completed after last ref (ring=%d)", got)
	}
}

func TestSlowTailCapture(t *testing.T) {
	r := New(0, 5*time.Millisecond)
	fast := r.Begin("doc")
	if fast == nil {
		t.Fatal("tail capture must trace every doc")
	}
	if fast.Sampled {
		t.Fatal("tail-captured trace must not be marked sampled")
	}
	fast.Finish() // completes immediately: under threshold, dropped
	slow := r.Begin("doc")
	time.Sleep(10 * time.Millisecond)
	slow.Finish()

	if got := len(r.Traces()); got != 0 {
		t.Fatalf("sampling off but sampled ring has %d traces", got)
	}
	st := r.SlowTraces()
	if len(st) != 1 {
		t.Fatalf("slow ring has %d traces, want 1", len(st))
	}
	if !st[0].Slow || st[0].Total < 5*time.Millisecond {
		t.Fatalf("slow trace = slow:%v total:%v", st[0].Slow, st[0].Total)
	}
	s := r.Stats()
	if s.Started != 2 || s.Kept != 1 || s.Slow != 1 {
		t.Fatalf("stats = %+v, want started:2 kept:1 slow:1", s)
	}
}

func TestSpanOverflowTruncates(t *testing.T) {
	r := New(1, 0)
	tc := r.Begin("doc")
	for i := 0; i < MaxSpans+10; i++ {
		sp := tc.StartSpan("s", Root)
		tc.EndSpan(sp)
	}
	tc.Finish()
	got := r.Traces()[0]
	if n := len(got.Spans()); n != MaxSpans {
		t.Fatalf("span count = %d, want %d", n, MaxSpans)
	}
	// MaxSpans includes the root span, so 11 starts overflow.
	if tr := got.Truncated(); tr != 11 {
		t.Fatalf("truncated = %d, want 11", tr)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(1, 0)
	for i := 0; i < ringSize+16; i++ {
		r.Begin("doc").Finish()
	}
	traces := r.Traces()
	if len(traces) != ringSize {
		t.Fatalf("ring holds %d, want %d", len(traces), ringSize)
	}
	// Newest trace (highest id) must be present; the very first must be gone.
	var maxID, minID uint64 = 0, 1 << 62
	for _, c := range traces {
		if c.ID > maxID {
			maxID = c.ID
		}
		if c.ID < minID {
			minID = c.ID
		}
	}
	if maxID != ringSize+16 {
		t.Fatalf("newest id = %d, want %d", maxID, ringSize+16)
	}
	if minID != 17 {
		t.Fatalf("oldest id = %d, want 17", minID)
	}
}

func TestCollectDedupsAcrossRings(t *testing.T) {
	r := New(1, time.Nanosecond) // everything sampled AND everything slow
	tc := r.Begin("doc")
	time.Sleep(time.Millisecond)
	tc.Finish()
	all := r.Collect()
	if len(all) != 1 {
		t.Fatalf("Collect = %d traces, want 1 (dedup across rings)", len(all))
	}
	if !all[0].Slow || !all[0].Sampled {
		t.Fatalf("trace flags = slow:%v sampled:%v", all[0].Slow, all[0].Sampled)
	}
}

func TestAddSpanAndOffsets(t *testing.T) {
	r := New(1, 0)
	tc := r.Begin("doc")
	id := tc.AddSpan("queue_wait", Root, 100, 250)
	tc.Finish()
	spans := r.Traces()[0].Spans()
	s := spans[id]
	if s.Start != 100 || s.End != 250 || s.Dur() != 150 {
		t.Fatalf("AddSpan span = %+v", s)
	}
	// Negative and inverted ranges are clamped, never panic.
	tc2 := r.Begin("doc")
	id2 := tc2.AddSpan("x", Root, -5, -10)
	tc2.Finish()
	s2 := r.Traces()[1].Spans()[id2]
	if s2.Start != 0 || s2.End != 0 {
		t.Fatalf("clamped span = %+v", s2)
	}
}

func TestTracksAreDistinct(t *testing.T) {
	r := New(1, 0)
	tc := r.Begin("doc")
	t1 := tc.NextTrack()
	t2 := tc.NextTrack()
	if t1 == 0 || t2 == 0 || t1 == t2 {
		t.Fatalf("tracks %d,%d should be distinct and nonzero", t1, t2)
	}
	sp := tc.StartSpan("deliver", Root)
	tc.SetTrack(sp, t2)
	tc.Finish()
	if got := r.Traces()[0].Spans()[sp].Track; got != t2 {
		t.Fatalf("span track = %d, want %d", got, t2)
	}
}

func TestHandlerJSON(t *testing.T) {
	r := New(1, time.Nanosecond)
	tc := r.Begin("publish")
	sp := tc.StartSpan("filter", Root)
	tc.SetAttr(sp, "matches", 7)
	tc.EndSpan(sp)
	time.Sleep(time.Millisecond)
	tc.Finish()

	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/traces", nil))
	if rw.Code != 200 {
		t.Fatalf("status = %d", rw.Code)
	}
	var p struct {
		Enabled     bool  `json:"enabled"`
		SampleEvery int   `json:"sample_every"`
		SlowNS      int64 `json:"slow_threshold_ns"`
		Traces      []struct {
			Kind  string `json:"kind"`
			Spans []struct {
				Name  string `json:"name"`
				DurNS int64  `json:"dur_ns"`
				Attrs []Attr `json:"attrs"`
			} `json:"spans"`
		} `json:"traces"`
		SlowTraces []json.RawMessage `json:"slow_traces"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rw.Body.String())
	}
	if !p.Enabled || p.SampleEvery != 1 || p.SlowNS != 1 {
		t.Fatalf("config = %+v", p)
	}
	if len(p.Traces) != 1 || len(p.SlowTraces) != 1 {
		t.Fatalf("traces=%d slow=%d, want 1/1", len(p.Traces), len(p.SlowTraces))
	}
	tr := p.Traces[0]
	if tr.Kind != "publish" || len(tr.Spans) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Spans[1].Attrs[0] != (Attr{Key: "matches", Val: 7}) {
		t.Fatalf("filter attrs = %+v", tr.Spans[1].Attrs)
	}
}

func TestNilHandlerReportsDisabled(t *testing.T) {
	var r *Recorder
	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/traces", nil))
	var p struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if p.Enabled {
		t.Fatal("nil recorder handler reports enabled")
	}
}

func TestWriteChromeFormat(t *testing.T) {
	r := New(1, 0)
	tc := r.Begin("publish")
	sp := tc.StartSpan("filter", Root)
	tc.SetAttr(sp, "states_created", 12)
	tc.EndSpan(sp)
	tc.Finish()

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome dump is not a JSON array: %v\n%s", err, buf.String())
	}
	var complete, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event missing ts: %v", ev)
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("event missing dur: %v", ev)
			}
			args := ev["args"].(map[string]any)
			if _, ok := args["trace_id"]; !ok {
				t.Fatalf("event missing trace_id arg: %v", ev)
			}
			if ev["name"] == "filter" && args["states_created"] != float64(12) {
				t.Fatalf("filter args = %v", args)
			}
		case "M":
			meta++
		}
	}
	if complete != 2 || meta != 1 {
		t.Fatalf("complete=%d meta=%d, want 2/1", complete, meta)
	}
}

// TestWriteChromeEventFields: a local trace's events carry every field of
// the Chrome encoding — name, ph, ts, dur, pid, tid, cat and args — and no
// thread is named, as there are no node rows to tell apart.
func TestWriteChromeEventFields(t *testing.T) {
	r := New(1, 0)
	tc := r.Begin("publish")
	sp := tc.StartSpan("deliver", Root)
	tc.SetTrack(sp, tc.NextTrack())
	tc.SetAttr(sp, "subscribers", 3)
	tc.EndSpan(sp)
	id := float64(tc.ID)
	tc.Finish()

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome dump is not a JSON array: %v\n%s", err, buf.String())
	}
	want := map[string]struct {
		tid  float64
		cat  string
		args map[string]any
	}{
		"publish": {1, "root", map[string]any{"trace_id": id}},
		"deliver": {2, "span", map[string]any{"trace_id": id, "subscribers": float64(3)}},
	}
	for _, ev := range events {
		if ev["ph"] == "M" {
			if ev["name"] != "process_name" {
				t.Errorf("local trace has metadata %v", ev)
			}
			continue
		}
		w, ok := want[ev["name"].(string)]
		if !ok {
			t.Fatalf("unexpected event %v", ev)
		}
		delete(want, ev["name"].(string))
		if len(ev) != 8 || ev["ph"] != "X" || ev["pid"] != id || ev["tid"] != w.tid || ev["cat"] != w.cat {
			t.Errorf("event %v: want ph X, pid %v, tid %v, cat %s and nothing more", ev, id, w.tid, w.cat)
		}
		for _, k := range []string{"ts", "dur"} {
			if _, ok := ev[k].(float64); !ok {
				t.Errorf("event %v: %s is not a number", ev, k)
			}
		}
		if !reflect.DeepEqual(ev["args"], w.args) {
			t.Errorf("event %v: args %v, want %v", ev["name"], ev["args"], w.args)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing events %v", want)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatalf("WriteChrome(nil): %v", err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty dump invalid: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("empty dump has %d events", len(events))
	}
}

// Concurrent span writes from multiple goroutines (publish thread plus
// delivery consumers) must be safe; run under -race.
func TestConcurrentSpansAndReaders(t *testing.T) {
	r := New(1, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tc := r.Begin("doc")
				for k := 0; k < 3; k++ {
					tc.Ref()
					go func() {
						sp := tc.StartSpan("deliver", Root)
						tc.SetAttr(sp, "n", 1)
						tc.EndSpan(sp)
						tc.Finish()
					}()
				}
				tc.Finish()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, c := range r.Collect() {
				_ = c.Spans()
			}
			var buf bytes.Buffer
			_ = r.WriteChrome(&buf)
		}
	}()
	wg.Wait()
	<-done
}
