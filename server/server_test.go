package server_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/server"
)

// startServer runs a broker on loopback ports and registers cleanup.
func startServer(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// collector gathers deliveries on one subscriber connection.
type collector struct {
	mu   sync.Mutex
	docs []string
	ids  map[uint64]int // filter id -> delivery count
}

func newCollector() *collector { return &collector{ids: map[uint64]int{}} }

func (c *collector) deliver(d client.Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = append(c.docs, string(d.Doc))
	for _, id := range d.Filters {
		c.ids[id]++
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.docs)
}

func (c *collector) idCount(id uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ids[id]
}

func dialSub(t testing.TB, addr string, col *collector) *client.Client {
	t.Helper()
	opt := client.Options{Timeout: 5 * time.Second}
	if col != nil {
		opt.OnDeliver = col.deliver
	}
	c, err := client.Dial(addr, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServeLoopbackEndToEnd is the acceptance scenario: N subscribers with
// distinct filters, one publisher, correct per-subscriber delivery sets,
// zero drops under the block policy, and a drain that flushes every queued
// delivery before the server exits.
func TestServeLoopbackEndToEnd(t *testing.T) {
	srv := startServer(t, server.Config{
		MetricsAddr: "127.0.0.1:0",
		Policy:      server.Block,
		QueueDepth:  256,
	})

	alerts, eu, audit := newCollector(), newCollector(), newCollector()
	cAlerts := dialSub(t, srv.Addr(), alerts)
	cEU := dialSub(t, srv.Addr(), eu)
	cAudit := dialSub(t, srv.Addr(), audit)

	idBig, err := cAlerts.Subscribe(`//order[total > 1000]`)
	if err != nil {
		t.Fatal(err)
	}
	idHigh, err := cAlerts.Subscribe(`//order[@priority = "high"]`)
	if err != nil {
		t.Fatal(err)
	}
	idEU, err := cEU.Subscribe(`//order[customer/country != "US"]`)
	if err != nil {
		t.Fatal(err)
	}
	idAll, err := cAudit.Subscribe(`//order`)
	if err != nil {
		t.Fatal(err)
	}
	if idBig == idHigh || idEU == idAll || idBig == idAll {
		t.Fatalf("filter ids not distinct: %d %d %d %d", idBig, idHigh, idEU, idAll)
	}

	pub := dialSub(t, srv.Addr(), nil)
	docs := []struct {
		xml     string
		matches int
	}{
		{`<order id="1" priority="high"><customer><country>US</country></customer><total>40</total></order>`, 2},
		{`<order id="2" priority="low"><customer><country>DE</country></customer><total>2500</total></order>`, 3},
		{`<order id="3" priority="low"><customer><country>US</country></customer><total>10</total></order>`, 1},
		{`<note>not an order</note>`, 0},
	}
	const rounds = 10
	for round := 0; round < rounds; round++ {
		for _, d := range docs {
			n, err := pub.Publish([]byte(d.xml))
			if err != nil {
				t.Fatal(err)
			}
			if n != d.matches {
				t.Fatalf("publish %q: %d matches, want %d", d.xml, n, d.matches)
			}
		}
	}

	// Graceful drain must flush every queued delivery before closing.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-cAlerts.Done()
	<-cEU.Done()
	<-cAudit.Done()

	// Per-subscriber delivery sets: alerts gets docs 1 and 2 (one delivery
	// each, even though doc 1 matches its filter idHigh and doc 2 its
	// idBig), eu gets doc 2, audit gets docs 1-3.
	if got, want := alerts.count(), 2*rounds; got != want {
		t.Errorf("alerts received %d deliveries, want %d", got, want)
	}
	if got, want := alerts.idCount(idBig), rounds; got != want {
		t.Errorf("alerts filter %d matched %d times, want %d", idBig, got, want)
	}
	if got, want := alerts.idCount(idHigh), rounds; got != want {
		t.Errorf("alerts filter %d matched %d times, want %d", idHigh, got, want)
	}
	if got, want := eu.count(), rounds; got != want {
		t.Errorf("eu received %d deliveries, want %d", got, want)
	}
	if got, want := audit.count(), 3*rounds; got != want {
		t.Errorf("audit received %d deliveries, want %d", got, want)
	}
	if got, want := audit.idCount(idAll), 3*rounds; got != want {
		t.Errorf("audit filter %d matched %d times, want %d", idAll, got, want)
	}
}

// scrape fetches the metrics endpoint as text lines.
func scrape(t testing.TB, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts a single un-labelled series value from a scrape.
func metricValue(t testing.TB, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

// TestMetricsAndHealth pins the observability surface: engine metrics,
// per-policy drop counters, queue-depth gauge, and delivery-latency
// quantiles are exported; /healthz answers ok while serving.
func TestMetricsAndHealth(t *testing.T) {
	srv := startServer(t, server.Config{MetricsAddr: "127.0.0.1:0", Policy: server.Block})
	col := newCollector()
	sub := dialSub(t, srv.Addr(), col)
	if _, err := sub.Subscribe(`//m`); err != nil {
		t.Fatal(err)
	}
	pub := dialSub(t, srv.Addr(), nil)
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish([]byte(`<m><v>1</v></m>`)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "deliveries", func() bool { return col.count() == 5 })

	// The broker counts a batch of deliveries after flushing it, so the
	// client can hold all five documents before the counters say so.
	var text string
	waitFor(t, "the delivery counters", func() bool {
		text = scrape(t, srv.MetricsAddr())
		return strings.Contains(text, "xpushserve_deliveries_total 5") &&
			strings.Contains(text, "xpushserve_delivery_latency_seconds_count 5")
	})
	for _, want := range []string{
		"xpush_documents_total 5",
		"xpushserve_publishes_total 5",
		"xpushserve_deliveries_total 5",
		"xpushserve_dropped_total 0",
		"xpushserve_dropped_drop_oldest_total 0",
		"xpushserve_dropped_drop_newest_total 0",
		"xpushserve_dropped_block_total 0",
		"xpushserve_dropped_disconnect_total 0",
		"xpushserve_queue_depth 0",
		"xpushserve_subscriptions 1",
		`xpushserve_delivery_latency_seconds{quantile="0.5"}`,
		"xpushserve_delivery_latency_seconds_count 5",
		"xpushserve_delivery_latency_histogram_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	resp, err := http.Get("http://" + srv.MetricsAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d, want 200", resp.StatusCode)
	}
}

// TestUnsubscribeStopsDeliveries is the filter-removal regression: after
// UNSUBSCRIBE, the removed filter stops matching (through the engine's
// removed mask, not just the delivery table) while the connection's other
// filter keeps delivering.
func TestUnsubscribeStopsDeliveries(t *testing.T) {
	srv := startServer(t, server.Config{Policy: server.Block})
	col := newCollector()
	sub := dialSub(t, srv.Addr(), col)
	idA, err := sub.Subscribe(`//m[a = 1]`)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := sub.Subscribe(`//m[b = 2]`)
	if err != nil {
		t.Fatal(err)
	}
	pub := dialSub(t, srv.Addr(), nil)
	doc := []byte(`<m><a>1</a><b>2</b></m>`)
	if n, err := pub.Publish(doc); err != nil || n != 2 {
		t.Fatalf("publish: n=%d err=%v, want 2 matches", n, err)
	}
	waitFor(t, "both filters delivered", func() bool {
		return col.idCount(idA) == 1 && col.idCount(idB) == 1
	})

	if err := sub.Unsubscribe(idA); err != nil {
		t.Fatal(err)
	}
	// The publish match count drops to 1: the removed filter is masked in
	// the engine itself (Engine.WithoutQuery semantics through the server).
	if n, err := pub.Publish(doc); err != nil || n != 1 {
		t.Fatalf("publish after unsubscribe: n=%d err=%v, want 1 match", n, err)
	}
	waitFor(t, "remaining filter delivered", func() bool { return col.idCount(idB) == 2 })
	if got := col.idCount(idA); got != 1 {
		t.Errorf("removed filter %d delivered %d times, want it frozen at 1", idA, got)
	}

	// Unsubscribing someone else's filter must fail.
	other := dialSub(t, srv.Addr(), newCollector())
	if _, err := other.Subscribe(`//x`); err != nil {
		t.Fatal(err)
	}
	if err := other.Unsubscribe(idB); err == nil {
		t.Error("unsubscribing another connection's filter succeeded")
	}
}

// TestSubscriptionChurn drives SUBSCRIBE/UNSUBSCRIBE concurrently with
// document flow: the copy-on-write engine swap must keep every publish on a
// consistent workload generation (run with -race), and the stable audit
// subscriber must see every document under the block policy. With two
// publishers, documents are filtered concurrently on the one engine, across
// the generations the churner swaps in.
func TestSubscriptionChurn(t *testing.T) {
	for _, publishers := range []int{1, 2} {
		t.Run(fmt.Sprintf("publishers=%d", publishers), func(t *testing.T) {
			srv := startServer(t, server.Config{
				Policy:     server.Block,
				QueueDepth: 512,
			})
			audit := newCollector()
			cAudit := dialSub(t, srv.Addr(), audit)
			if _, err := cAudit.Subscribe(`//m`); err != nil {
				t.Fatal(err)
			}

			const docsN = 120
			const churnN = 40
			var wg sync.WaitGroup
			errs := make(chan error, 1+publishers)
			wg.Add(1 + publishers)
			for p := 0; p < publishers; p++ {
				go func(p int) { // publisher: every publishers-th document
					defer wg.Done()
					pub := dialSub(t, srv.Addr(), nil)
					for i := p; i < docsN; i += publishers {
						doc := fmt.Sprintf(`<m><v>%d</v></m>`, i)
						if n, err := pub.Publish([]byte(doc)); err != nil {
							errs <- fmt.Errorf("publish %d: %w", i, err)
							return
						} else if n < 1 {
							errs <- fmt.Errorf("publish %d: audit filter did not match", i)
							return
						}
					}
				}(p)
			}
			go func() { // churner
				defer wg.Done()
				churn := dialSub(t, srv.Addr(), newCollector())
				for i := 0; i < churnN; i++ {
					id, err := churn.Subscribe(fmt.Sprintf(`//m[v > %d]`, i))
					if err != nil {
						errs <- fmt.Errorf("churn subscribe %d: %w", i, err)
						return
					}
					if i%2 == 0 {
						if err := churn.Unsubscribe(id); err != nil {
							errs <- fmt.Errorf("churn unsubscribe %d: %w", i, err)
							return
						}
					}
				}
			}()
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			<-cAudit.Done()
			if got := audit.count(); got != docsN {
				t.Errorf("audit received %d documents, want %d (zero drops under block)", got, docsN)
			}
		})
	}
}

// TestBackpressurePolicies exercises the drop accounting for a slow
// subscriber under each lossy policy. Documents are large enough that the
// held subscriber's kernel socket buffers fill and its delivery consumer
// blocks, backing deliveries up into the bounded queue.
func TestBackpressurePolicies(t *testing.T) {
	const burst = 64
	bigDoc := []byte("<m><pad>" + strings.Repeat("x", 1<<18) + "</pad></m>")
	t.Run("drop-newest", func(t *testing.T) {
		srv := startServer(t, server.Config{
			MetricsAddr: "127.0.0.1:0",
			Policy:      server.DropNewest,
			QueueDepth:  1,
		})
		slow := newCollector()
		gate := make(chan struct{})
		c, err := client.Dial(srv.Addr(), client.Options{
			Timeout: 5 * time.Second,
			OnDeliver: func(d client.Delivery) {
				<-gate // hold the read loop: queue backs up
				slow.deliver(d)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Subscribe(`//m`); err != nil {
			t.Fatal(err)
		}
		pub := dialSub(t, srv.Addr(), nil)
		for i := 0; i < burst; i++ {
			if _, err := pub.Publish(bigDoc); err != nil {
				t.Fatal(err)
			}
		}
		close(gate)
		text := scrape(t, srv.MetricsAddr())
		dropped := metricValue(t, text, "xpushserve_dropped_drop_newest_total")
		if dropped == 0 {
			t.Error("expected drops under drop-newest with a held subscriber")
		}
		if total := metricValue(t, text, "xpushserve_dropped_total"); total != dropped {
			t.Errorf("dropped_total %v != policy counter %v", total, dropped)
		}
	})
	t.Run("disconnect", func(t *testing.T) {
		srv := startServer(t, server.Config{
			Policy:     server.Disconnect,
			QueueDepth: 1,
		})
		gate := make(chan struct{})
		c, err := client.Dial(srv.Addr(), client.Options{
			OnDeliver: func(d client.Delivery) { <-gate },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Subscribe(`//m`); err != nil {
			t.Fatal(err)
		}
		pub := dialSub(t, srv.Addr(), nil)
		for i := 0; i < burst; i++ {
			if _, err := pub.Publish(bigDoc); err != nil {
				t.Fatal(err)
			}
		}
		// The server has closed the connection by now; release the held
		// read loop so it can observe that and close Done.
		close(gate)
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("slow subscriber was not disconnected")
		}
	})
}

// TestMaxDocBytes: an oversized publish is rejected with a clean protocol
// error instead of unbounded buffering.
func TestMaxDocBytes(t *testing.T) {
	srv := startServer(t, server.Config{MaxDocBytes: 256})
	pub := dialSub(t, srv.Addr(), nil)
	big := []byte("<m>" + strings.Repeat("x", 1024) + "</m>")
	_, err := pub.Publish(big)
	if err == nil {
		t.Fatal("oversized publish succeeded")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("error %q does not mention the size limit", err)
	}
}

// TestSnapshotWarmStart: a restarted broker resumes with the previous
// workload and its lazily built machine states.
func TestSnapshotWarmStart(t *testing.T) {
	path := t.TempDir() + "/state.xpw"
	cfg := server.Config{
		SnapshotPath:   path,
		InitialQueries: []string{`//m[v > 1]`, `//m[v > 2]`, `//a//b[c = "x"]`},
	}
	srv1 := startServer(t, cfg)
	pub := dialSub(t, srv1.Addr(), nil)
	for i := 0; i < 20; i++ {
		if _, err := pub.Publish([]byte(fmt.Sprintf(`<m><v>%d</v></m>`, i%5))); err != nil {
			t.Fatal(err)
		}
	}
	warm := srv1.Stats()
	if warm.States == 0 {
		t.Fatal("no machine states after warm-up")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2 := startServer(t, cfg)
	boot := srv2.Stats()
	if boot.States != warm.States {
		t.Errorf("warm-start restored %d states, want %d", boot.States, warm.States)
	}
	// The restored workload still filters correctly.
	pub2 := dialSub(t, srv2.Addr(), nil)
	n, err := pub2.Publish([]byte(`<m><v>3</v></m>`))
	if err != nil || n != 2 {
		t.Fatalf("publish on warm-started broker: n=%d err=%v, want 2 matches", n, err)
	}

	// A checkpoint taken after churn and compactions holds a workload with
	// holes (ids compaction dropped) and masks (ids released since): a broker
	// restarted from it, with the same filters subscribed again, routes the
	// same documents to the same subscriptions.
	cfg.DebugAddr = "127.0.0.1:0"
	cfg.SnapshotPath = t.TempDir() + "/churn.xpw"
	srv3 := startServer(t, cfg)
	churn := dialSub(t, srv3.Addr(), nil)
	type churnSub struct{ id, i uint64 }
	var churned []churnSub
	last := 0
	for i := 0; machineSnapshot(t, srv3).Consolidations < 2; i++ {
		last = i
		id, err := churn.Subscribe(fmt.Sprintf("/probe[q=%d]", i))
		if err != nil {
			t.Fatal(err)
		}
		if churned = append(churned, churnSub{id, uint64(i)}); i%3 == 0 {
			if err := churn.Unsubscribe(churned[0].id); err != nil {
				t.Fatal(err)
			}
			churned = churned[1:]
		}
		if i > 2000 {
			t.Fatal("no compaction after 2000 unique subscribes")
		}
	}
	waitFor(t, "compaction to settle", func() bool { return !machineSnapshot(t, srv3).Compacting })
	masked := int(churned[0].i) // released after the last compaction: masked in the snapshot
	if err := churn.Unsubscribe(churned[0].id); err != nil {
		t.Fatal(err)
	}
	// The subscriber rides a boot filter and new ones; the probes hit
	// churned filters, live and released.
	filters := []string{`//m[v > 1]`, `//m[w = 2]`, "/other[q=7]", "/other[q=8]"}
	other := func(i int) []byte { return []byte(fmt.Sprintf("<other><q>%d</q></other>", i)) }
	docs := [][]byte{[]byte(`<m><v>3</v><w>2</w></m>`), []byte(`<m><w>2</w></m>`), other(7), other(8), other(9),
		probeDoc(0), probeDoc(masked), probeDoc(masked + 1), probeDoc(last)}
	route := func(srv *server.Server) []string {
		col := newCollector()
		sub := dialSub(t, srv.Addr(), col)
		text := map[uint64]string{}
		for _, q := range filters {
			id, err := sub.Subscribe(q)
			if err != nil {
				t.Fatal(err)
			}
			text[id] = q
		}
		pub := dialSub(t, srv.Addr(), nil)
		var got []string
		for _, doc := range docs {
			n, err := pub.Publish(doc)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s matched %d", doc, n))
		}
		waitFor(t, "deliveries", func() bool { return col.count() == 4 })
		col.mu.Lock()
		defer col.mu.Unlock()
		for id, n := range col.ids {
			got = append(got, fmt.Sprintf("%s delivered %d", text[id], n))
		}
		sort.Strings(got)
		return got
	}
	before := route(srv3)
	if err := srv3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Shutdown would write a checkpoint without the live subscriptions;
	// restart from a copy of this one.
	snap, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(snap, []byte("XPWSNAP2")) {
		t.Fatalf("checkpoint starts %q, want the version 2 magic", snap[:8])
	}
	cfg.SnapshotPath = t.TempDir() + "/copy.xpw"
	if err := os.WriteFile(cfg.SnapshotPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	srv3.Close()
	if after := route(startServer(t, cfg)); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("restarted broker routes\n %v\nwant\n %v", after, before)
	}
}

// TestPingAndReadTimeout: PING keeps an idle control connection alive and
// round-trips.
func TestPing(t *testing.T) {
	srv := startServer(t, server.Config{ReadTimeout: 200 * time.Millisecond})
	c := dialSub(t, srv.Addr(), nil)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// An idle connection without subscriptions is reaped by the read
	// deadline.
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection was not reaped by the read timeout")
	}
}

// TestUnknownFrameProtoErr pins the version-skew contract: an unknown frame
// type draws a terminal PROTO_ERR (0x8F) frame naming the bad opcode, and
// the server closes the connection instead of continuing to parse a stream
// it no longer understands.
func TestUnknownFrameProtoErr(t *testing.T) {
	srv := startServer(t, server.Config{})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := server.WriteFrame(nc, 0x7e, []byte("bogus")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := server.ReadFrame(bufio.NewReader(nc), 1<<20)
	if err != nil {
		t.Fatalf("expected a PROTO_ERR frame, got read error %v", err)
	}
	if f.Type != server.FrameProtoErr {
		t.Fatalf("frame type = 0x%02x, want PROTO_ERR 0x%02x", f.Type, server.FrameProtoErr)
	}
	if !strings.Contains(string(f.Payload), "0x7e") {
		t.Fatalf("reason %q does not name the offending opcode", f.Payload)
	}
	// The connection must be closed right after: the next read is EOF.
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection open after a protocol error")
	}
}

// BenchmarkServeLoopback measures broker round-trip throughput over real
// loopback TCP: one publisher, one subscriber holding three filters, block
// policy (lossless). Reported docs/sec is the publisher's synchronous
// publish rate including delivery fan-out.
func BenchmarkServeLoopback(b *testing.B) {
	srv := startServer(b, server.Config{
		MetricsAddr: "127.0.0.1:0",
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
	// Warm the machine before timing.
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
	text := scrape(b, srv.MetricsAddr())
	for _, q := range []struct{ quantile, label string }{
		{"0.5", "p50_µs"}, {"0.9", "p90_µs"}, {"0.99", "p99_µs"},
	} {
		var v float64
		prefix := `xpushserve_delivery_latency_seconds{quantile="` + q.quantile + `"} `
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, prefix) {
				fmt.Sscanf(strings.TrimPrefix(line, prefix), "%g", &v)
			}
		}
		b.ReportMetric(v*1e6, q.label)
	}
}
