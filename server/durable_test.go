package server_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/server"
	"repro/wal"
)

// walServer wires a WAL and cursor store under dir into a loopback broker.
func walServer(t testing.TB, dir string, cfg server.Config) (*server.Server, *wal.Log, *wal.CursorStore) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cs, err := wal.OpenCursorStore(filepath.Join(filepath.Dir(dir), "cursors"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = server.WrapWAL(l)
	cfg.Cursors = cs
	return startServer(t, cfg), l, cs
}

// durCollector gathers durable deliveries with their log offsets.
type durCollector struct {
	mu   sync.Mutex
	docs []string
	offs []uint64
}

func (c *durCollector) deliver(d client.Delivery) {
	if !d.Durable {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = append(c.docs, string(d.Doc))
	c.offs = append(c.offs, d.Offset)
}

func (c *durCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.docs)
}

func (c *durCollector) at(i int) (string, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.docs[i], c.offs[i]
}

func dialDur(t testing.TB, addr string, col *durCollector) *client.Client {
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

func matchDoc(i int) []byte {
	return []byte(fmt.Sprintf(`<order seq="%d"><total>2000</total></order>`, i))
}

func missDoc(i int) []byte {
	return []byte(fmt.Sprintf(`<order seq="%d"><total>5</total></order>`, i))
}

// TestDurableSubscribeDeliverAck is the happy path: durable deliveries carry
// log offsets, acks persist the cursor, and a reconnect under the same name
// replays exactly the unacked matches.
func TestDurableSubscribeDeliverAck(t *testing.T) {
	base := t.TempDir()
	srv, _, cs := walServer(t, filepath.Join(base, "wal"), server.Config{})

	col := &durCollector{}
	sub := dialDur(t, srv.Addr(), col)
	id, resume, err := sub.SubscribeDurable("billing", `//order[total > 1000]`)
	if err != nil {
		t.Fatal(err)
	}
	if resume != 0 {
		t.Fatalf("resume = %d on an empty log", resume)
	}
	_ = id

	pub := dialDur(t, srv.Addr(), nil)
	// Interleave matches and misses; every publish lands in the log, only
	// matches are delivered.
	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(matchDoc(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Publish(missDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "10 durable deliveries", func() bool { return col.count() >= 10 })
	if col.count() != 10 {
		t.Fatalf("delivered %d docs, want 10", col.count())
	}
	// Offsets are the even log offsets (matches were published first in
	// each pair) and strictly increasing.
	for i := 0; i < 10; i++ {
		doc, off := col.at(i)
		if off != uint64(2*i) {
			t.Fatalf("delivery %d at offset %d, want %d", i, off, 2*i)
		}
		if want := string(matchDoc(i)); doc != want {
			t.Fatalf("delivery %d = %q, want %q", i, doc, want)
		}
	}

	// Ack through the 6th match (log offset 10): cursor becomes 11.
	_, ackOff := col.at(5)
	if err := sub.Ack(ackOff); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cursor persisted", func() bool {
		got, ok, err := cs.Load("billing")
		return err == nil && ok && got == ackOff+1
	})

	// Reconnect: replay must hold exactly the 4 unacked matches.
	sub.Close()
	col2 := &durCollector{}
	sub2 := dialDur(t, srv.Addr(), col2)
	_, resume2, err := sub2.SubscribeDurable("billing", `//order[total > 1000]`)
	if err != nil {
		t.Fatal(err)
	}
	if resume2 != ackOff+1 {
		t.Fatalf("resume after reconnect = %d, want %d", resume2, ackOff+1)
	}
	waitFor(t, "4 replayed deliveries", func() bool { return col2.count() >= 4 })
	for i := 0; i < 4; i++ {
		doc, _ := col2.at(i)
		if want := string(matchDoc(6 + i)); doc != want {
			t.Fatalf("replayed %d = %q, want %q", i, doc, want)
		}
	}
	// And the live tail still flows after replay.
	if _, err := pub.Publish(matchDoc(99)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live delivery after replay", func() bool { return col2.count() >= 5 })
	if doc, _ := col2.at(4); doc != string(matchDoc(99)) {
		t.Fatalf("live doc = %q", doc)
	}
}

// TestDurableResumeBeforeFirstAck: the subscription point is persisted at
// SUBSCRIBE_DURABLE time, so a subscriber that disconnects before its first
// ack resumes from where it subscribed — not from the tail — and misses
// nothing published while it was away.
func TestDurableResumeBeforeFirstAck(t *testing.T) {
	base := t.TempDir()
	srv, _, cs := walServer(t, filepath.Join(base, "wal"), server.Config{})

	// Pre-existing traffic moves the tail off zero.
	pub := dialDur(t, srv.Addr(), nil)
	for i := 0; i < 3; i++ {
		if _, err := pub.Publish(missDoc(i)); err != nil {
			t.Fatal(err)
		}
	}

	sub := dialDur(t, srv.Addr(), nil)
	_, resume, err := sub.SubscribeDurable("orders", `//order[total > 1000]`)
	if err != nil {
		t.Fatal(err)
	}
	if resume != 3 {
		t.Fatalf("resume = %d, want 3", resume)
	}
	// The subscription point is on disk immediately, before any ack.
	if got, ok, err := cs.Load("orders"); err != nil || !ok || got != 3 {
		t.Fatalf("cursor after subscribe = (%d, %v, %v), want (3, true, nil)", got, ok, err)
	}

	// Disconnect without ever acking, publish while away, reconnect.
	sub.Close()
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(matchDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	col := &durCollector{}
	sub2 := dialDur(t, srv.Addr(), col)
	_, resume2, err := sub2.SubscribeDurable("orders", `//order[total > 1000]`)
	if err != nil {
		t.Fatal(err)
	}
	if resume2 != 3 {
		t.Fatalf("resume after reconnect = %d, want 3", resume2)
	}
	waitFor(t, "docs published while away replayed", func() bool { return col.count() >= 5 })
	for i := 0; i < 5; i++ {
		if doc, _ := col.at(i); doc != string(matchDoc(i)) {
			t.Fatalf("replay %d = %q, want %q", i, doc, matchDoc(i))
		}
	}
}

// TestDurableCrashRecovery is the acceptance scenario: a broker dies
// mid-append (torn tail on disk), restarts over the same directories, and a
// reconnecting durable subscriber receives every unacked match — with the
// torn record truncated, verified by the log-integrity check.
func TestDurableCrashRecovery(t *testing.T) {
	base := t.TempDir()
	walDir := filepath.Join(base, "wal")
	srv, _, cs := walServer(t, walDir, server.Config{})

	col := &durCollector{}
	sub := dialDur(t, srv.Addr(), col)
	if _, _, err := sub.SubscribeDurable("audit", `//order[total > 1000]`); err != nil {
		t.Fatal(err)
	}
	pub := dialDur(t, srv.Addr(), nil)
	for i := 0; i < 20; i++ {
		if _, err := pub.Publish(matchDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "20 durable deliveries", func() bool { return col.count() >= 20 })
	_, ackOff := col.at(10) // ack through the 11th doc
	if err := sub.Ack(ackOff); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cursor persisted", func() bool {
		got, ok, err := cs.Load("audit")
		return err == nil && ok && got == ackOff+1
	})

	// "Crash": kill the broker without draining, then tear the log's tail
	// as an interrupted append would — a record header promising 100
	// payload bytes with only 10 present.
	sub.Close()
	pub.Close()
	srv.Close()
	segs, err := filepath.Glob(filepath.Join(walDir, "*.wseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte{0, 0, 0, 100, 0xde, 0xad, 0xbe, 0xef}, []byte("tornrecord")...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Log-integrity check before restart: the tail is torn, the 20 real
	// records are intact.
	v, err := wal.Verify(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Torn || v.NextOffset != 20 {
		t.Fatalf("pre-restart Verify = %+v, want torn with 20 records", v)
	}

	// Restart over the same directories: recovery truncates the torn tail.
	srv2, _, _ := walServer(t, walDir, server.Config{})
	if v, err = wal.Verify(walDir); err != nil || v.Torn || v.NextOffset != 20 {
		t.Fatalf("post-restart Verify = %+v, %v; want clean 20 records", v, err)
	}

	col2 := &durCollector{}
	sub2 := dialDur(t, srv2.Addr(), col2)
	_, resume, err := sub2.SubscribeDurable("audit", `//order[total > 1000]`)
	if err != nil {
		t.Fatal(err)
	}
	if resume != ackOff+1 {
		t.Fatalf("resume = %d, want %d", resume, ackOff+1)
	}
	want := 20 - int(ackOff+1)
	waitFor(t, "unacked docs replayed", func() bool { return col2.count() >= want })
	if col2.count() != want {
		t.Fatalf("replayed %d docs, want %d", col2.count(), want)
	}
	for i := 0; i < want; i++ {
		doc, off := col2.at(i)
		if off != ackOff+1+uint64(i) || doc != string(matchDoc(int(ackOff)+1+i)) {
			t.Fatalf("replay %d = (%d, %q)", i, off, doc)
		}
	}
}

// flakyLog injects append failures through the DocLog seam.
type flakyLog struct {
	server.DocLog
	fail atomic.Bool
}

func (f *flakyLog) AppendAsync(doc []byte) server.PendingAppend {
	if f.fail.Load() {
		return failedAppend{}
	}
	return f.DocLog.AppendAsync(doc)
}

// failedAppend is an append the disk refused.
type failedAppend struct{}

func (failedAppend) Wait() (uint64, error) { return 0, errors.New("injected disk failure") }
func (failedAppend) BatchSize() int        { return 1 }

// TestDurableFailingWriter: when the log cannot accept writes, publishes
// fail cleanly (the error names the WAL) and the broker stays up — pings
// and control-plane traffic keep working, and publishes recover when the
// disk does.
func TestDurableFailingWriter(t *testing.T) {
	base := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(base, "wal"), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cs, err := wal.OpenCursorStore(filepath.Join(base, "cursors"))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyLog{DocLog: server.WrapWAL(l)}
	srv := startServer(t, server.Config{WAL: flaky, Cursors: cs})

	c := dialDur(t, srv.Addr(), nil)
	if _, err := c.Publish(matchDoc(0)); err != nil {
		t.Fatalf("publish before failure: %v", err)
	}
	flaky.fail.Store(true)
	_, err = c.Publish(matchDoc(1))
	if err == nil || !strings.Contains(err.Error(), "wal append") {
		t.Fatalf("publish during failure = %v, want a wal append error", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping during disk failure: %v", err)
	}
	if _, err := c.Subscribe(`//a`); err != nil {
		t.Fatalf("subscribe during disk failure: %v", err)
	}
	flaky.fail.Store(false)
	if _, err := c.Publish(matchDoc(2)); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	// Exactly the two successful publishes are in the log.
	if n := l.NextOffset(); n != 2 {
		t.Fatalf("log holds %d records, want 2", n)
	}
}

// TestDurableNameTakeover: a reconnect under a live name steals it — the old
// session is closed and only the new one receives deliveries.
func TestDurableNameTakeover(t *testing.T) {
	base := t.TempDir()
	srv, _, _ := walServer(t, filepath.Join(base, "wal"), server.Config{})

	col1 := &durCollector{}
	old := dialDur(t, srv.Addr(), col1)
	if _, _, err := old.SubscribeDurable("feed", `//order[total > 1000]`); err != nil {
		t.Fatal(err)
	}
	col2 := &durCollector{}
	fresh := dialDur(t, srv.Addr(), col2)
	if _, _, err := fresh.SubscribeDurable("feed", `//order[total > 1000]`); err != nil {
		t.Fatal(err)
	}
	select {
	case <-old.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("old session not closed on takeover")
	}
	pub := dialDur(t, srv.Addr(), nil)
	if _, err := pub.Publish(matchDoc(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery to the new session", func() bool { return col2.count() >= 1 })
	if col1.count() != 0 {
		t.Fatalf("old session received %d deliveries after takeover", col1.count())
	}
}

// TestDurableRequiresWAL: a broker without a log rejects durable
// subscriptions but otherwise works.
func TestDurableRequiresWAL(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dialDur(t, srv.Addr(), nil)
	if _, _, err := c.SubscribeDurable("x", `//a`); err == nil {
		t.Fatal("durable subscribe accepted without a WAL")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after rejected durable subscribe: %v", err)
	}
}

// TestDurableSecondFilterSharesPump: multiple durable filters on one
// connection ride the same replay stream and each match only its own docs.
func TestDurableSecondFilterSharesPump(t *testing.T) {
	base := t.TempDir()
	srv, _, _ := walServer(t, filepath.Join(base, "wal"), server.Config{})
	col := &durCollector{}
	sub := dialDur(t, srv.Addr(), col)
	id1, _, err := sub.SubscribeDurable("multi", `//order[total > 1000]`)
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := sub.SubscribeDurable("multi", `//order[@rush = "yes"]`)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("duplicate filter ids %d", id1)
	}
	pub := dialDur(t, srv.Addr(), nil)
	if _, err := pub.Publish([]byte(`<order rush="yes"><total>2000</total></order>`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "combined delivery", func() bool { return col.count() >= 1 })
	// One document, one DeliverAt frame, both filter ids in it.
	if col.count() != 1 {
		t.Fatalf("%d deliveries for one doc", col.count())
	}
	// A second name on the same connection is rejected.
	if _, _, err := sub.SubscribeDurable("other", `//a`); err == nil {
		t.Fatal("second durable name accepted on one connection")
	}
}

// BenchmarkServeDurableLoopback measures end-to-end durable delivery over
// loopback TCP per fsync policy: publisher → WAL append → pump re-filter →
// DeliverAt → ack. Reported latency is publish-call to OnDeliver.
func BenchmarkServeDurableLoopback(b *testing.B) {
	for _, pol := range []wal.FsyncPolicy{wal.FsyncInterval, wal.FsyncNever} {
		b.Run("fsync="+string(pol), func(b *testing.B) {
			base := b.TempDir()
			l, err := wal.Open(wal.Options{Dir: filepath.Join(base, "wal"), Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			cs, err := wal.OpenCursorStore(filepath.Join(base, "cursors"))
			if err != nil {
				b.Fatal(err)
			}
			srv := startServer(b, server.Config{WAL: server.WrapWAL(l), Cursors: cs})

			var mu sync.Mutex
			var lats []time.Duration
			var sent []time.Time
			got := make(chan uint64, 1024)
			sub, err := client.Dial(srv.Addr(), client.Options{
				Timeout: 10 * time.Second,
				OnDeliver: func(d client.Delivery) {
					mu.Lock()
					i := int(d.Offset)
					if i < len(sent) {
						lats = append(lats, time.Since(sent[i]))
					}
					mu.Unlock()
					got <- d.Offset
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sub.Close()
			if _, _, err := sub.SubscribeDurable("bench", `//order[total > 1000]`); err != nil {
				b.Fatal(err)
			}
			pub := dialDur(b, srv.Addr(), nil)
			doc := []byte(`<order id="7" priority="high"><customer><country>DE</country></customer><total>2500</total></order>`)
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mu.Lock()
				sent = append(sent, time.Now())
				mu.Unlock()
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
				off := <-got
				if err := sub.Ack(off); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/sec")
			mu.Lock()
			defer mu.Unlock()
			if len(lats) > 0 {
				var sum time.Duration
				for _, d := range lats {
					sum += d
				}
				b.ReportMetric(float64(sum.Microseconds())/float64(len(lats)), "deliver_µs/op")
			}
		})
	}
}
