package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/server"
	"repro/wal"
)

// tracesPayload mirrors the /debug/traces JSON document.
type tracesPayload struct {
	Enabled     bool        `json:"enabled"`
	SampleEvery int         `json:"sample_every"`
	SlowNS      int64       `json:"slow_threshold_ns"`
	Traces      []jsonTrace `json:"traces"`
	SlowTraces  []jsonTrace `json:"slow_traces"`
}

type jsonTrace struct {
	ID      uint64     `json:"id"`
	Kind    string     `json:"kind"`
	TotalNS int64      `json:"total_ns"`
	Slow    bool       `json:"slow"`
	Sampled bool       `json:"sampled"`
	Spans   []jsonSpan `json:"spans"`
}

type jsonSpan struct {
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	Track   int32  `json:"track"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []struct {
		Key string `json:"Key"`
		Val int64  `json:"Val"`
	} `json:"attrs"`
}

func (t *jsonTrace) span(name string) *jsonSpan {
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

func (s *jsonSpan) attr(key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// getJSON fetches a debug endpoint and decodes it into out.
func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("decoding %s: %v\n%s", url, err, body)
	}
}

// traceCollector records deliveries together with their trace ids.
type traceCollector struct {
	mu       sync.Mutex
	traceIDs []uint64
	offsets  []uint64
}

func (c *traceCollector) deliver(d client.Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.traceIDs = append(c.traceIDs, d.TraceID)
	c.offsets = append(c.offsets, d.Offset)
}

func (c *traceCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traceIDs)
}

func (c *traceCollector) traceID(i int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceIDs[i]
}

// TestTracedLoopbackEndToEnd is the tracing acceptance scenario: with
// sampling at 1/1 over a WAL-backed broker (fsync always), one published
// document yields a trace whose spans cover every pipeline stage — WAL
// append, filtering, queue wait, and the DELIVER write — the client sees the
// trace id stamped into the delivery frame, and the trace round-trips through
// /debug/traces, /debug/machine, and the Chrome export. A blocking and a
// pipelined PUBLISH take the one publish order, so their traces carry the
// same wal_append span.
func TestTracedLoopbackEndToEnd(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cs, err := wal.OpenCursorStore(filepath.Join(dir, "cursors"))
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, server.Config{
		DebugAddr:   "127.0.0.1:0",
		TraceSample: 1,
		TraceSlow:   time.Nanosecond, // everything is "slow": exercises tail capture too
		Policy:      server.Block,
		WAL:         server.WrapWAL(l),
		Cursors:     cs,
	})

	col := &traceCollector{}
	subc, err := client.Dial(srv.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col.deliver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { subc.Close() })
	if _, err := subc.Subscribe(`//order[total > 1000]`); err != nil {
		t.Fatal(err)
	}
	pub := dialSub(t, srv.Addr(), nil)
	if n, err := pub.Publish([]byte(`<order><total>2500</total></order>`)); err != nil || n != 1 {
		t.Fatalf("publish: n=%d err=%v, want 1 match", n, err)
	}
	waitFor(t, "traced delivery", func() bool { return col.count() >= 1 })
	traceID := col.traceID(0)
	if traceID == 0 {
		t.Fatal("delivery carried no trace id with sampling at 1/1")
	}
	pp, err := pub.PublishPipelined(4, func(client.PublishResult) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Publish([]byte(`<order><total>3500</total></order>`)); err != nil {
		t.Fatal(err)
	}
	if err := pp.Close(); err != nil {
		t.Fatalf("pipelined publish: %v", err)
	}
	waitFor(t, "traced pipelined delivery", func() bool { return col.count() >= 2 })

	// A trace completes at the last DELIVER write; poll /debug/traces until
	// it lands in the ring.
	base := "http://" + srv.DebugAddr()
	traceByID := func(id uint64) *jsonTrace {
		var got *jsonTrace
		waitFor(t, "trace in /debug/traces", func() bool {
			var p tracesPayload
			getJSON(t, base+"/debug/traces", &p)
			for i := range p.Traces {
				if p.Traces[i].ID == id {
					got = &p.Traces[i]
					return true
				}
			}
			return false
		})
		return got
	}
	got := traceByID(traceID)
	// One wal_append shape: a child of the root carrying the batch size, with
	// nothing under it, for the blocking and the pipelined publish alike.
	for _, tr := range []*jsonTrace{got, traceByID(col.traceID(1))} {
		w := tr.span("wal_append")
		if w == nil {
			t.Fatalf("trace %d has no wal_append span; spans: %v", tr.ID, spanNames(tr))
		}
		if bs, ok := w.attr("batch_size"); w.Parent != 0 || !ok || bs < 1 {
			t.Errorf("trace %d: wal_append parent %d, batch_size %d (present=%v); want the root and >= 1", tr.ID, w.Parent, bs, ok)
		}
		for _, sp := range tr.Spans {
			if sp.Name == "fsync_wait" || sp.Parent >= 0 && tr.Spans[sp.Parent].Name == "wal_append" {
				t.Errorf("trace %d: span %q is an fsync_wait or hangs under wal_append; spans: %v", tr.ID, sp.Name, spanNames(tr))
			}
		}
	}
	if got.Kind != "publish" || !got.Sampled || got.TotalNS <= 0 {
		t.Fatalf("trace %d: kind=%q sampled=%v total=%dns", got.ID, got.Kind, got.Sampled, got.TotalNS)
	}
	if !got.Slow {
		t.Errorf("trace %d not marked slow with a 1ns threshold", got.ID)
	}
	// The acceptance bar: at least 5 distinct pipeline stages with non-zero
	// durations.
	for _, name := range []string{"publish", "wal_append", "filter", "queue_wait", "deliver_write"} {
		sp := got.span(name)
		if sp == nil {
			t.Fatalf("trace %d has no %q span; spans: %v", got.ID, name, spanNames(got))
		}
		if sp.DurNS <= 0 {
			t.Errorf("span %q has zero duration", name)
		}
	}
	// Machine telemetry rides on the filter span.
	fsp := got.span("filter")
	if v, ok := fsp.attr("matches"); !ok || v != 1 {
		t.Errorf("filter span matches attr = %d (present=%v), want 1", v, ok)
	}
	for _, key := range []string{"events", "states_created", "tail_states_created"} {
		if _, ok := fsp.attr(key); !ok {
			t.Errorf("filter span has no %s attr", key)
		}
	}
	if v, ok := fsp.attr("layers"); !ok || v < 1 {
		t.Errorf("filter span layers attr = %d (present=%v), want >= 1", v, ok)
	}
	// Layers are counted, not timed: no span hangs under the filter span.
	for _, sp := range got.Spans {
		if sp.Parent >= 0 && got.Spans[sp.Parent].Name == "filter" {
			t.Errorf("span %q hangs under the filter span; spans: %v", sp.Name, spanNames(got))
		}
	}

	// The same trace also sits in the slow ring (1ns threshold).
	var p tracesPayload
	getJSON(t, base+"/debug/traces", &p)
	foundSlow := false
	for _, tr := range p.SlowTraces {
		if tr.ID == traceID {
			foundSlow = true
		}
	}
	if !foundSlow {
		t.Error("trace missing from slow_traces despite the 1ns threshold")
	}

	// /debug/machine serves a live snapshot.
	var m struct {
		Queries int `json:"queries"`
		States  int `json:"states"`
		Trace   struct {
			Enabled bool `json:"enabled"`
		} `json:"trace"`
	}
	getJSON(t, base+"/debug/machine", &m)
	if m.Queries != 1 || m.States == 0 || !m.Trace.Enabled {
		t.Errorf("machine snapshot: %+v", m)
	}

	// The Chrome export round-trips as a JSON array carrying the trace id.
	var buf bytes.Buffer
	if err := srv.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v\n%s", err, buf.String())
	}
	foundRoot := false
	for _, ev := range events {
		if ev["name"] == "publish" && ev["ph"] == "X" {
			if args, ok := ev["args"].(map[string]any); ok && uint64(args["trace_id"].(float64)) == traceID {
				foundRoot = true
			}
		}
	}
	if !foundRoot {
		t.Errorf("chrome export has no publish event for trace %d", traceID)
	}

	// pprof is mounted on the same mux.
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %s", resp.Status)
	}
}

func spanNames(tr *jsonTrace) []string {
	names := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		names[i] = s.Name
	}
	return names
}

// TestDurableTracedReplay: the durable pump's replay path produces "replay"
// traces (log read, journal lookup or filter pass, DELIVERAT write) with a
// replay_lag attribute, and the delivery frame carries the trace id. A
// document the broker filtered at publish is routed from the match journal
// and carries no filter span; after a restart the same record predates the
// process, misses, and is filtered by the pump.
func TestDurableTracedReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cs, err := wal.OpenCursorStore(filepath.Join(dir, "cursors"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		DebugAddr:   "127.0.0.1:0",
		TraceSample: 1,
		WAL:         server.WrapWAL(l),
		Cursors:     cs,
	}
	// replayTrace subscribes under the durable name, waits for offset 0 to
	// arrive and returns its replay trace.
	replayTrace := func(srv *server.Server) *jsonTrace {
		t.Helper()
		col := &traceCollector{}
		sub, err := client.Dial(srv.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col.deliver})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sub.Close() })
		if _, _, err := sub.SubscribeDurable("tracer", `//order[total > 1000]`); err != nil {
			t.Fatal(err)
		}
		if l.NextOffset() == 0 {
			pub := dialSub(t, srv.Addr(), nil)
			if _, err := pub.Publish([]byte(`<order><total>9000</total></order>`)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "durable traced delivery", func() bool { return col.count() >= 1 })
		traceID := col.traceID(0)
		if traceID == 0 {
			t.Fatal("durable delivery carried no trace id with sampling at 1/1")
		}
		var got *jsonTrace
		waitFor(t, "replay trace in /debug/traces", func() bool {
			var p tracesPayload
			getJSON(t, "http://"+srv.DebugAddr()+"/debug/traces", &p)
			for i := range p.Traces {
				if p.Traces[i].ID == traceID {
					got = &p.Traces[i]
					return true
				}
			}
			return false
		})
		if got.Kind != "replay" {
			t.Fatalf("trace %d kind = %q, want replay", got.ID, got.Kind)
		}
		for _, name := range []string{"log_read", "journal", "deliver_write"} {
			if got.span(name) == nil {
				t.Errorf("replay trace has no %q span; spans: %v", name, spanNames(got))
			}
		}
		root := got.span("replay")
		if root == nil {
			t.Fatalf("no root span; spans: %v", spanNames(got))
		}
		if _, ok := root.attr("replay_lag"); !ok {
			t.Error("replay trace has no replay_lag attr")
		}
		if off, ok := root.attr("offset"); !ok || off != 0 {
			t.Errorf("replay trace offset attr = %d (present=%v), want 0", off, ok)
		}
		return got
	}

	srv := startServer(t, cfg)
	hit := replayTrace(srv)
	if hit.span("filter") != nil {
		t.Errorf("a journal hit ran the filter; spans: %v", spanNames(hit))
	}
	if j := hit.span("journal"); j != nil {
		if v, ok := j.attr("hit"); !ok || v != 1 {
			t.Errorf("journal span hit attr = %d (present=%v), want 1", v, ok)
		}
		if v, ok := j.attr("keys"); !ok || v != 1 {
			t.Errorf("journal span keys attr = %d (present=%v), want 1", v, ok)
		}
	}

	// The journaled keys keep feeding /debug/queries' replay column.
	if q := getQueries(t, srv.DebugAddr()); len(q.Queries) != 1 || q.Queries[0].ReplayDocs != 1 || !strings.Contains(q.Queries[0].Query, "order") {
		t.Errorf("/debug/queries after a journal hit = %+v, want one query with replay_docs 1", q.Queries)
	}

	// Nothing was acked: a new process replays offset 0 from the same log.
	srv.Close()
	miss := replayTrace(startServer(t, cfg))
	if miss.span("filter") == nil {
		t.Errorf("a journal miss did not run the filter; spans: %v", spanNames(miss))
	}
	if j := miss.span("journal"); j != nil {
		if v, ok := j.attr("hit"); !ok || v != 0 {
			t.Errorf("journal span hit attr = %d (present=%v), want 0", v, ok)
		}
	}
}

// TestDurableReplayLagMetric: the per-subscriber replay-lag gauge tracks
// cursor-vs-head distance and drains to zero once the subscriber acks, and
// the pump-active gauge counts the running pump.
func TestDurableReplayLagMetric(t *testing.T) {
	base := t.TempDir()
	srv, _, _ := walServer(t, filepath.Join(base, "wal"), server.Config{MetricsAddr: "127.0.0.1:0"})

	col := &durCollector{}
	sub := dialDur(t, srv.Addr(), col)
	if _, _, err := sub.SubscribeDurable("billing", `//order[total > 1000]`); err != nil {
		t.Fatal(err)
	}
	const docs = 4
	pub := dialDur(t, srv.Addr(), nil)
	for i := 0; i < docs; i++ {
		if _, err := pub.Publish(matchDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "durable deliveries", func() bool { return col.count() >= docs })

	lagSeries := `xpush_durable_replay_lag_offsets{name="billing"} `
	if v := labeledValue(t, scrape(t, srv.MetricsAddr()), lagSeries); v != docs {
		t.Errorf("replay lag before ack = %v, want %d", v, docs)
	}
	if v := metricValue(t, scrape(t, srv.MetricsAddr()), "xpush_durable_pump_active"); v != 1 {
		t.Errorf("pump active = %v, want 1", v)
	}

	_, lastOff := col.at(docs - 1)
	if err := sub.Ack(lastOff); err != nil {
		t.Fatal(err)
	}
	// Acks are fire-and-forget; the cursor advances asynchronously.
	waitFor(t, "replay lag drains to 0", func() bool {
		return labeledValue(t, scrape(t, srv.MetricsAddr()), lagSeries) == 0
	})
}

// labeledValue extracts one labeled series value from a scrape by its full
// "name{labels} " prefix.
func labeledValue(t testing.TB, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, prefix), "%g", &v)
			return v
		}
	}
	t.Fatalf("no series with prefix %q in scrape", prefix)
	return 0
}

// TestUntracedDeliveryHasZeroTraceID: with tracing disabled the wire format
// is the pre-flag encoding and clients see TraceID zero.
func TestUntracedDeliveryHasZeroTraceID(t *testing.T) {
	srv := startServer(t, server.Config{})
	col := &traceCollector{}
	sub, err := client.Dial(srv.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col.deliver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	if _, err := sub.Subscribe(`//a`); err != nil {
		t.Fatal(err)
	}
	pub := dialSub(t, srv.Addr(), nil)
	if _, err := pub.Publish([]byte(`<a/>`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return col.count() >= 1 })
	if id := col.traceID(0); id != 0 {
		t.Fatalf("untraced delivery carried trace id %d", id)
	}
}

// BenchmarkServeLoopbackTraced measures the loopback round-trip with tracing
// in three states: fully off (the zero-overhead claim), sampling 1/1000 (the
// production setting), and sampling 1/1 (worst case, every document traced).
func BenchmarkServeLoopbackTraced(b *testing.B) {
	for _, bc := range []struct {
		name   string
		sample int
	}{
		{"off", 0},
		{"sample1000", 1000},
		{"sample1", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := startServer(b, server.Config{
				TraceSample: bc.sample,
				Policy:      server.Block,
				QueueDepth:  1024,
			})
			col := newCollector()
			sub := dialSub(b, srv.Addr(), col)
			for _, q := range []string{`//order[total > 1000]`, `//order[@priority = "high"]`, `//order`} {
				if _, err := sub.Subscribe(q); err != nil {
					b.Fatal(err)
				}
			}
			pub := dialSub(b, srv.Addr(), nil)
			doc := []byte(`<order id="7" priority="high"><customer><country>DE</country></customer><total>2500</total></order>`)
			for i := 0; i < 100; i++ {
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			waitFor(b, "all deliveries flushed", func() bool { return col.count() >= b.N+100 })
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/sec")
		})
	}
}
