package server_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/server"
	"repro/wal"
)

// The filters of the journal script. Every one of them matches a sentinel
// document (scriptRun.sync), which is how the script learns that an in-order
// pump has passed a point in the log.
const (
	fAll   = `//order`
	fOver1 = `//order[total > 1000]`
	fOver2 = `//order[total > 2000]`
	fOver3 = `//order[total > 3000]`
	fEU    = `//order[region = "eu"]`
)

// scriptRun is one broker driven through the journal script: the log lives
// in dir across the restart, got is the multiset of deliveries made.
type scriptRun struct {
	t     *testing.T
	dir   string
	slots int // the match journal's ring size; 0 = engine pass on every replay
	rng   *rand.Rand

	srv *server.Server
	log *wal.Log
	cs  *wal.CursorStore
	pub *client.Client
	seq int // documents published so far = the next log offset

	mu  sync.Mutex
	got map[string]int
}

// scriptSub is one subscriber connection of the script.
type scriptSub struct {
	c *client.Client

	mu   sync.Mutex
	next uint64        // 1 + the highest durable offset delivered
	n    int           // deliveries
	gate chan struct{} // non-nil: deliveries block here (a stalled subscriber)
}

func (r *scriptRun) boot() {
	r.t.Helper()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(r.dir, "wal"), Fsync: wal.FsyncNever})
	if err != nil {
		r.t.Fatal(err)
	}
	cs, err := wal.OpenCursorStore(filepath.Join(r.dir, "cursors"))
	if err != nil {
		r.t.Fatal(err)
	}
	srv, err := server.NewWithJournalSlots(server.Config{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Policy:      server.Block, // no drops: the plain subscriber's deliveries are compared too
		QueueDepth:  4096,
		WAL:         server.WrapWAL(l),
		Cursors:     cs,
	}, r.slots)
	if err != nil {
		r.t.Fatal(err)
	}
	r.srv, r.log, r.cs = srv, l, cs
	r.pub, err = client.Dial(srv.Addr(), client.Options{Timeout: 30 * time.Second})
	if err != nil {
		r.t.Fatal(err)
	}
}

func (r *scriptRun) shutdown() {
	if r.srv == nil {
		return
	}
	r.pub.Close()
	r.srv.Close()
	r.log.Close()
	r.srv = nil
}

// dial connects a subscriber whose deliveries are recorded under tag (not
// recorded at all under the empty tag).
func (r *scriptRun) dial(tag string) *scriptSub {
	r.t.Helper()
	sub := &scriptSub{}
	c, err := client.Dial(r.srv.Addr(), client.Options{Timeout: 30 * time.Second, OnDeliver: func(d client.Delivery) {
		sub.mu.Lock()
		gate := sub.gate
		sub.mu.Unlock()
		if gate != nil {
			<-gate
		}
		ids := slices.Clone(d.Filters)
		slices.Sort(ids)
		key := fmt.Sprintf("%s doc %s %v", tag, seqOf(d.Doc), ids)
		if d.Durable {
			key = fmt.Sprintf("%s @%d %v", tag, d.Offset, ids)
		}
		if tag != "" {
			r.mu.Lock()
			r.got[key]++
			r.mu.Unlock()
		}
		sub.mu.Lock()
		sub.n++
		if d.Durable && d.Offset >= sub.next {
			sub.next = d.Offset + 1
		}
		sub.mu.Unlock()
	}})
	if err != nil {
		r.t.Fatal(err)
	}
	sub.c = c
	r.t.Cleanup(func() { c.Close() })
	return sub
}

// seqOf extracts the seq attribute the script stamps on every document.
func seqOf(doc []byte) string {
	_, rest, _ := bytes.Cut(doc, []byte(`seq="`))
	s, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(s)
}

func (s *scriptSub) setGate(g chan struct{}) {
	s.mu.Lock()
	s.gate = g
	s.mu.Unlock()
}

func (r *scriptRun) durable(s *scriptSub, name, filter string) uint64 {
	r.t.Helper()
	id, _, err := s.c.SubscribeDurable(name, filter)
	if err != nil {
		r.t.Fatalf("subscribe durable %s %q: %v", name, filter, err)
	}
	return id
}

func (r *scriptRun) doc(pad int) []byte {
	regions := []string{"eu", "us", "ap"}
	d := fmt.Sprintf(`<order seq="%d"><total>%d</total><region>%s</region>`, r.seq, r.rng.Intn(5000), regions[r.rng.Intn(3)])
	if pad > 0 {
		d += "<pad>" + strings.Repeat("x", pad) + "</pad>"
	}
	return []byte(d + `</order>`)
}

// publish sends n seeded documents one round trip at a time.
func (r *scriptRun) publish(n, pad int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if _, err := r.pub.Publish(r.doc(pad)); err != nil {
			r.t.Fatalf("publish %d: %v", r.seq, err)
		}
		r.seq++
	}
}

// publishPipelined sends n seeded documents through a 16-deep window, so
// publish workers journal concurrently and out of order.
func (r *scriptRun) publishPipelined(n int) {
	r.t.Helper()
	p, err := r.pub.PublishPipelined(16, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := p.Publish(r.doc(0)); err != nil {
			r.t.Fatalf("pipelined publish %d: %v", r.seq, err)
		}
		r.seq++
	}
	if err := p.Close(); err != nil {
		r.t.Fatal(err)
	}
}

// sync publishes a sentinel every script filter matches and waits until each
// durable subscriber has been delivered it: pumps deliver in log order, so
// everything published before has been routed by then.
func (r *scriptRun) sync(subs ...*scriptSub) {
	r.t.Helper()
	doc := fmt.Sprintf(`<order seq="%d"><total>999999</total><region>eu</region></order>`, r.seq)
	if _, err := r.pub.Publish([]byte(doc)); err != nil {
		r.t.Fatalf("publish sentinel %d: %v", r.seq, err)
	}
	r.seq++
	for _, s := range subs {
		r.wait(fmt.Sprintf("the pump to reach offset %d", r.seq-1), func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.next >= uint64(r.seq)
		})
	}
}

func (r *scriptRun) wait(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.t.Fatalf("journal slots %d: timed out waiting for %s", r.slots, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// journalMisses scrapes one reason's count of the journal-miss family.
func journalMisses(t testing.TB, srv *server.Server, reason string) float64 {
	t.Helper()
	return labeledValue(t, scrape(t, srv.MetricsAddr()),
		`xpushserve_durable_journal_misses_total{reason="`+reason+`"} `)
}

func (r *scriptRun) missesBy(reason string) float64 { return journalMisses(r.t, r.srv, reason) }

// runJournalScript plays the whole script against one broker and returns
// its deliveries.
func runJournalScript(t *testing.T, slots int) map[string]int {
	r := &scriptRun{t: t, dir: t.TempDir(), slots: slots, rng: rand.New(rand.NewSource(22)), got: map[string]int{}}
	r.boot()
	defer r.shutdown()
	journaled := slots > 0

	// Phase 1: durable and plain subscribers, sequential and pipelined
	// publishes, a second durable filter on the live connection, an
	// unsubscribe that releases a machine query.
	alpha := r.dial("alpha")
	r.durable(alpha, "alpha", fAll)
	over1 := r.durable(alpha, "alpha", fOver1)
	plain := r.dial("plain")
	for _, f := range []string{fAll, fOver3} {
		if _, err := plain.c.Subscribe(f); err != nil {
			t.Fatal(err)
		}
	}
	r.publish(20, 0)
	r.publishPipelined(40)
	r.sync(alpha)
	r.durable(alpha, "alpha", fEU) // the pump is at the tail: only later documents see it
	r.publish(15, 0)
	r.publishPipelined(15)
	r.sync(alpha)
	if err := alpha.c.Unsubscribe(over1); err != nil {
		t.Fatal(err)
	}
	r.publish(20, 0)
	r.sync(alpha)
	if journaled {
		// Every filter was in the workload before the documents it could
		// match were published and the ring was never lapped: nothing
		// missed, so the engine ran once per document.
		hits, misses := r.srv.JournalCounts()
		if timeouts := int64(r.missesBy("timeout")); misses != timeouts {
			t.Errorf("phase 1: %d journal misses (%d of them timeouts), want none", misses, timeouts)
		}
		if hits+misses != int64(r.seq) {
			t.Errorf("phase 1: %d hits + %d misses over %d log records", hits, misses, r.seq)
		}
		if docs := r.srv.Stats().Documents; docs != int64(r.seq)+misses {
			t.Errorf("phase 1: the engine filtered %d documents for %d publishes and %d journal misses", docs, r.seq, misses)
		}
	}
	ack := uint64(r.seq - 25)
	if err := alpha.c.Ack(ack); err != nil {
		t.Fatal(err)
	}
	r.wait("alpha's cursor", func() bool {
		got, ok, err := r.cs.Load("alpha")
		return err == nil && ok && got == ack+1
	})

	// Phase 2: alpha goes away, documents pile up behind its cursor, and it
	// reconnects under the same name with one filter the broker has never
	// compiled. The backlog was journaled on workloads without it.
	alpha.c.Close()
	r.wait("alpha's subscriptions to be released", func() bool { return r.srv.NumSubscriptions() == 2 })
	r.publish(30, 0)
	alpha2 := r.dial("alpha2")
	r.durable(alpha2, "alpha", fOver2)
	r.sync(alpha2)
	if journaled && r.missesBy("new_filter") == 0 {
		t.Error("phase 2: a reconnect with a new filter replayed its backlog without a new_filter miss")
	}
	r.durable(alpha2, "alpha", fAll)
	r.publish(20, 0)
	r.sync(alpha2)

	// Phase 3: a churn burst deep enough to trigger a background compaction
	// swap, with publishes on both sides of it: a sliding window of 20
	// subscriptions releases 40 filters, past the removed-slot bound.
	churn := r.dial("") // nothing waits for its deliveries, so they are not compared
	var churned []uint64
	for i := 0; i < 60; i++ {
		id, err := churn.c.Subscribe(fmt.Sprintf(`//order[total > %d]`, 5000+i))
		if err != nil {
			t.Fatal(err)
		}
		churned = append(churned, id)
		if i >= 20 {
			if err := churn.c.Unsubscribe(churned[i-20]); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 0 {
			r.publish(2, 0)
		}
	}
	r.wait("a compaction swap", func() bool {
		return metricValue(t, scrape(t, r.srv.MetricsAddr()), "xpushserve_consolidations_total") >= 1
	})
	r.publish(10, 0)
	for _, id := range churned[40:50] {
		if err := churn.c.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	r.publishPipelined(10)
	r.sync(alpha2)

	// Phase 4: beta stalls (its handler blocks, TCP backs up into the pump)
	// while far more documents than the ring holds are published, then
	// resumes: the pump finds its next offsets lapped.
	beta := r.dial("beta")
	r.durable(beta, "beta", fAll)
	r.durable(beta, "beta", fOver1)
	r.sync(beta, alpha2)
	gate := make(chan struct{})
	beta.setGate(gate)
	r.publish(300, 48<<10)
	beta.setGate(nil)
	close(gate)
	r.sync(beta, alpha2)
	if journaled && r.missesBy("lapped") == 0 {
		t.Error("phase 4: the stalled subscriber was never lapped; the documents did not outgrow the socket buffers")
	}
	r.wait("the plain subscriber's deliveries", func() bool {
		plain.mu.Lock()
		defer plain.mu.Unlock()
		return plain.n == r.seq
	})

	// Phase 5: the broker restarts on the same log; beta resumes from its
	// acked cursor into records an earlier process journaled.
	ack = uint64(r.seq - 30)
	if err := beta.c.Ack(ack); err != nil {
		t.Fatal(err)
	}
	r.wait("beta's cursor", func() bool {
		got, ok, err := r.cs.Load("beta")
		return err == nil && ok && got == ack+1
	})
	r.shutdown()
	r.boot()
	beta2 := r.dial("beta2")
	r.durable(beta2, "beta", fAll)
	r.publish(20, 0)
	r.sync(beta2)
	if journaled {
		if r.missesBy("preboot") == 0 {
			t.Error("phase 5: records of the previous process replayed without a preboot miss")
		}
		if hits, _ := r.srv.JournalCounts(); hits == 0 {
			t.Error("phase 5: documents published after the restart were not routed from the journal")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got
}

// TestJournalMatchesEnginePass plays one seeded script against two brokers,
// one routing durable replays from the match journal (a 64-slot ring, so the
// stalled subscriber is lapped cheaply) and one with the journal forced
// empty, so that every replay takes the engine pass. Both must make exactly
// the same deliveries: the same subscription ids at the same log offsets,
// the same number of times.
func TestJournalMatchesEnginePass(t *testing.T) {
	want := runJournalScript(t, 0)
	got := runJournalScript(t, 64)
	var diff []string
	for k, n := range want {
		if got[k] != n {
			diff = append(diff, fmt.Sprintf("%s: engine pass x%d, journal x%d", k, n, got[k]))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, fmt.Sprintf("%s: engine pass x0, journal x%d", k, n))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		if len(diff) > 20 {
			diff = append(diff[:20], fmt.Sprintf("... and %d more", len(diff)-20))
		}
		t.Fatalf("%d deliveries differ of %d:\n%s", len(diff), len(want), strings.Join(diff, "\n"))
	}
	if len(want) < 500 {
		t.Fatalf("the script made only %d distinct deliveries", len(want))
	}
}

// standingLog injects the log's "offsets stand" corner through the DocLog
// seam: while fail is set, an append lands in the log but its Wait
// reports an error beside the offset, as wal.Pending.Wait does when a batch
// fails its fsync and cannot be truncated away.
type standingLog struct {
	server.DocLog
	fail atomic.Bool
}

type standingAppend struct {
	server.PendingAppend
	fail bool
}

func (l *standingLog) AppendAsync(doc []byte) server.PendingAppend {
	return standingAppend{l.DocLog.AppendAsync(doc), l.fail.Load()}
}

func (p standingAppend) Wait() (uint64, error) {
	off, err := p.PendingAppend.Wait()
	if err == nil && p.fail {
		err = fmt.Errorf("injected fsync failure (%w)", wal.ErrOffsetStands)
	}
	return off, err
}

// TestJournalPumpNeverParksForever covers the two ways a record can stand in
// the log without a successful publish behind it. A publish rejected beside a
// standing offset has been filtered, so it is journaled and delivered like
// any other — offset 0, the first record of a fresh log, included; a record
// written into the log from outside the broker is never journaled, and the
// pump filters it itself once journalWait has passed.
func TestJournalPumpNeverParksForever(t *testing.T) {
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
	log := &standingLog{DocLog: server.WrapWAL(l)}
	srv := startServer(t, server.Config{MetricsAddr: "127.0.0.1:0", WAL: log, Cursors: cs})
	misses := func(reason string) float64 { return journalMisses(t, srv, reason) }

	col := &durCollector{}
	sub := dialDur(t, srv.Addr(), col)
	if _, _, err := sub.SubscribeDurable("billing", `//order[total > 1000]`); err != nil {
		t.Fatal(err)
	}
	pub := dialDur(t, srv.Addr(), nil)

	// Offsets 0 and 1: rejected, but standing.
	log.fail.Store(true)
	var rejected atomic.Int32
	pipe, err := pub.PublishPipelined(4, func(r client.PublishResult) {
		if r.Err != nil {
			rejected.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := pipe.Publish(matchDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err == nil || rejected.Load() != 2 {
		t.Fatalf("publishes beside standing offsets: close = %v, %d rejected, want 2 wal append errors", err, rejected.Load())
	}
	log.fail.Store(false)
	waitFor(t, "the standing records' deliveries", func() bool { return col.count() >= 2 })
	if n := misses("timeout"); n != 0 {
		t.Errorf("a standing record was not journaled: %v timeout misses", n)
	}

	// Offset 2: written straight into the log; offset 3's publish wakes the pump.
	if _, err := l.Append(matchDoc(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(matchDoc(3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the foreign record's delivery", func() bool { return col.count() >= 4 })
	for i := 0; i < 4; i++ {
		if doc, off := col.at(i); off != uint64(i) || doc != string(matchDoc(i)) {
			t.Errorf("delivery %d = (%d, %q)", i, off, doc)
		}
	}
	if n := misses("timeout"); n != 1 {
		t.Errorf("timeout misses = %v, want 1 (the foreign record)", n)
	}
	if hits, _ := srv.JournalCounts(); hits != 3 {
		t.Errorf("journal hits = %d, want 3", hits)
	}
}
