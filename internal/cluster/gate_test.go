package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/xpath"
	"repro/server"
	"repro/wal"
)

// startNode boots one loopback xpushserve node with lossless backpressure
// (Block + deep queues), so differential runs cannot diverge on drops.
func startNode(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Policy == "" {
		cfg.Policy = server.Block
		cfg.QueueDepth = 4096
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// startSpreadNodes boots two nodes between which the ring splits
// scriptFilters. The ring hashes the nodes' ephemeral addresses, and about
// one address pair in 128 puts all eight filters on one node; the second
// node is redrawn until the pair splits them.
func startSpreadNodes(t testing.TB) (n1, n2 *server.Server) {
	t.Helper()
	n1 = startNode(t, server.Config{})
	for {
		n2 = startNode(t, server.Config{})
		r, err := NewRing([]string{n1.Addr(), n2.Addr()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		owners := map[string]bool{}
		for _, f := range scriptFilters {
			canon, err := xpath.Canonicalize(f)
			if err != nil {
				t.Fatal(err)
			}
			owners[r.Owner(canon)] = true
		}
		if len(owners) == 2 {
			return n1, n2
		}
		n2.Close()
	}
}

// startGate boots a gate over the given nodes with fast failure detection.
func startGate(t testing.TB, nodes []string, mutate func(*Config)) *Gate {
	t.Helper()
	cfg := Config{
		Nodes:        nodes,
		Client:       client.Options{Timeout: 5 * time.Second},
		Backoff:      client.Backoff{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		PingInterval: 50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	// Node connections come up asynchronously, and a publish that finds a
	// node not yet connected is refused.
	waitUntil(t, "nodes connected", func() bool {
		for _, n := range nodes {
			if !g.pool.Up(n) {
				return false
			}
		}
		return true
	})
	return g
}

func waitUntil(t testing.TB, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tally is a per-subscriber delivery multiset: ordinal -> doc -> count,
// where ordinal is the subscription's subscribe order on its connection
// (the normalization that makes gate ids comparable with broker ids).
type tally struct {
	mu    sync.Mutex
	total int
	byOrd map[int]map[string]int
}

func newTally() *tally { return &tally{byOrd: map[int]map[string]int{}} }

func (ta *tally) add(ord int, doc string) {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	m := ta.byOrd[ord]
	if m == nil {
		m = map[string]int{}
		ta.byOrd[ord] = m
	}
	m[doc]++
	ta.total++
}

func (ta *tally) count() int {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	return ta.total
}

func (ta *tally) snapshot() map[int]map[string]int {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	out := map[int]map[string]int{}
	for ord, m := range ta.byOrd {
		c := map[string]int{}
		for d, n := range m {
			c[d] = n
		}
		out[ord] = c
	}
	return out
}

// scriptSub is one scripted subscriber connection.
type scriptSub struct {
	c     *client.Client
	tally *tally
	mu    sync.Mutex
	ord   map[uint64]int // subscription id -> subscribe ordinal
	live  []uint64       // live ids in subscribe order (deterministic unsub targets)
	next  int
}

func (s *scriptSub) deliver(d client.Delivery) {
	s.mu.Lock()
	ords := make([]int, 0, len(d.Filters))
	for _, id := range d.Filters {
		if o, ok := s.ord[id]; ok {
			ords = append(ords, o)
		}
	}
	s.mu.Unlock()
	for _, o := range ords {
		s.tally.add(o, string(d.Doc))
	}
}

// op is one scripted action; the same script replays identically against a
// direct broker and a gated cluster.
type op struct {
	kind int // 0 publish, 1 subscribe, 2 unsubscribe
	sub  int // subscriber index (subscribe/unsubscribe)
	arg  int // filter index (subscribe), doc index (publish), live index (unsubscribe)
}

var scriptFilters = []string{
	"//order", "//order[status=\"new\"]", "/catalog/item", "//item[@id=\"7\"]",
	"//dept//emp", "/log/entry[level=\"error\"]", "//a/b", "//a[b=\"1\"]",
}

var scriptDocs = []string{
	`<order><status>new</status><sku>1</sku></order>`,
	`<order><status>done</status></order>`,
	`<catalog><item id="7">x</item></catalog>`,
	`<catalog><item id="9">y</item></catalog>`,
	`<dept><emp>ann</emp></dept>`,
	`<log><entry><level>error</level></entry></log>`,
	`<log><entry><level>info</level></entry></log>`,
	`<a><b>1</b></a>`,
	`<a><c>2</c></a>`,
	`<root><none/></root>`,
}

// genScript builds a seeded randomized publish/subscribe/churn sequence.
func genScript(seed int64, n, nSubs int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 55:
			ops = append(ops, op{kind: 0, arg: rng.Intn(len(scriptDocs))})
		case r < 85:
			ops = append(ops, op{kind: 1, sub: rng.Intn(nSubs), arg: rng.Intn(len(scriptFilters))})
		default:
			ops = append(ops, op{kind: 2, sub: rng.Intn(nSubs), arg: rng.Intn(16)})
		}
	}
	return ops
}

// runScript replays ops against the broker at addr: nSubs subscriber
// connections plus one publisher, every operation a sequential round trip.
// It returns each subscriber's delivery multiset and the per-publish match
// counts.
func runScript(t *testing.T, addr string, nSubs int, ops []op) ([]*tally, []int) {
	t.Helper()
	subs := make([]*scriptSub, nSubs)
	for i := range subs {
		s := &scriptSub{tally: newTally(), ord: map[uint64]int{}}
		c, err := client.Dial(addr, client.Options{Timeout: 10 * time.Second, OnDeliver: s.deliver})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		s.c = c
		subs[i] = s
	}
	pub, err := client.Dial(addr, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })

	var matches []int
	for _, o := range ops {
		switch o.kind {
		case 0:
			n, err := pub.Publish([]byte(scriptDocs[o.arg]))
			if err != nil {
				t.Fatalf("publish: %v", err)
			}
			matches = append(matches, n)
		case 1:
			s := subs[o.sub]
			id, err := s.c.Subscribe(scriptFilters[o.arg])
			if err != nil {
				t.Fatalf("subscribe %q: %v", scriptFilters[o.arg], err)
			}
			s.mu.Lock()
			s.ord[id] = s.next
			s.next++
			s.live = append(s.live, id)
			s.mu.Unlock()
		case 2:
			s := subs[o.sub]
			s.mu.Lock()
			if len(s.live) == 0 {
				s.mu.Unlock()
				continue
			}
			idx := o.arg % len(s.live)
			id := s.live[idx]
			s.live = append(s.live[:idx], s.live[idx+1:]...)
			s.mu.Unlock()
			if err := s.c.Unsubscribe(id); err != nil {
				t.Fatalf("unsubscribe %d: %v", id, err)
			}
		}
	}
	tallies := make([]*tally, nSubs)
	for i, s := range subs {
		tallies[i] = s.tally
	}
	return tallies, matches
}

// TestGateDifferentialMatchSets is the acceptance e2e: the same randomized
// publish/subscribe/churn sequence against a 2-node gated cluster and a
// single direct broker yields identical per-publish match counts and
// identical per-subscriber delivery multisets.
func TestGateDifferentialMatchSets(t *testing.T) {
	const nSubs = 3
	ops := genScript(42, 400, nSubs)

	direct := startNode(t, server.Config{})
	wantTallies, wantMatches := runScript(t, direct.Addr(), nSubs, ops)

	n1 := startNode(t, server.Config{})
	n2 := startNode(t, server.Config{})
	g := startGate(t, []string{n1.Addr(), n2.Addr()}, nil)
	gotTallies, gotMatches := runScript(t, g.Addr(), nSubs, ops)

	if len(gotMatches) != len(wantMatches) {
		t.Fatalf("publish count mismatch: %d vs %d", len(gotMatches), len(wantMatches))
	}
	for i := range wantMatches {
		if gotMatches[i] != wantMatches[i] {
			t.Fatalf("publish %d: gated matched %d, direct matched %d", i, gotMatches[i], wantMatches[i])
		}
	}
	// Both brokers ack publishes before deliveries drain; wait for the gated
	// run to reach the direct run's totals, then a grace beat to catch
	// over-delivery.
	for i := range wantTallies {
		i := i
		waitUntil(t, fmt.Sprintf("subscriber %d deliveries (%d)", i, wantTallies[i].count()),
			func() bool { return gotTallies[i].count() >= wantTallies[i].count() })
	}
	time.Sleep(200 * time.Millisecond)
	for i := range wantTallies {
		want, got := wantTallies[i].snapshot(), gotTallies[i].snapshot()
		if len(got) != len(want) {
			t.Fatalf("subscriber %d: %d delivered ordinals vs %d direct", i, len(got), len(want))
		}
		for ord, wantDocs := range want {
			gotDocs := got[ord]
			for doc, n := range wantDocs {
				if gotDocs[doc] != n {
					t.Fatalf("subscriber %d ordinal %d doc %q: gated %d deliveries, direct %d", i, ord, doc, gotDocs[doc], n)
				}
			}
			if len(gotDocs) != len(wantDocs) {
				t.Fatalf("subscriber %d ordinal %d: gated saw %d distinct docs, direct %d", i, ord, len(gotDocs), len(wantDocs))
			}
		}
	}
}

// TestGateSpreadsAcrossNodes sanity-checks the point of the exercise: a
// mixed filter population lands on both nodes.
func TestGateSpreadsAcrossNodes(t *testing.T) {
	n1, n2 := startSpreadNodes(t)
	g := startGate(t, []string{n1.Addr(), n2.Addr()}, nil)

	s := &scriptSub{tally: newTally(), ord: map[uint64]int{}}
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: s.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range scriptFilters {
		if _, err := c.Subscribe(f); err != nil {
			t.Fatal(err)
		}
	}
	k1, k2 := g.liveKeys[n1.Addr()].Load(), g.liveKeys[n2.Addr()].Load()
	if k1 == 0 || k2 == 0 {
		t.Fatalf("filters did not spread: node1=%d node2=%d", k1, k2)
	}
	if int(k1+k2) != len(scriptFilters) {
		t.Fatalf("live keys %d+%d, want %d", k1, k2, len(scriptFilters))
	}
	if n1.NumSubscriptions()+n2.NumSubscriptions() != len(scriptFilters) {
		t.Fatalf("node-side subscriptions %d+%d, want %d", n1.NumSubscriptions(), n2.NumSubscriptions(), len(scriptFilters))
	}
}

// TestGateFailoverResubscribes is the node-kill acceptance test: killing
// one node moves its ephemeral subscriptions to the survivor, deliveries
// keep flowing, and the event is visible in the gate's counters.
func TestGateFailoverResubscribes(t *testing.T) {
	n1, n2 := startSpreadNodes(t)
	g := startGate(t, []string{n1.Addr(), n2.Addr()}, nil)

	s := &scriptSub{tally: newTally(), ord: map[uint64]int{}}
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: s.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range scriptFilters {
		id, err := c.Subscribe(f)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.ord[id] = s.next
		s.next++
		s.mu.Unlock()
	}
	waitUntil(t, "both nodes holding filters", func() bool {
		return g.liveKeys[n1.Addr()].Load() > 0 && g.liveKeys[n2.Addr()].Load() > 0
	})

	// Kill node 1; every subscription must end up on node 2.
	victim, survivor := n1, n2
	victim.Close()
	waitUntil(t, "failover resubscribe", func() bool {
		return g.liveKeys[survivor.Addr()].Load() == int64(len(scriptFilters))
	})
	// The counters trail the live-key move: a connection's own downstream
	// error can finish the reroute before the pool's manage goroutine
	// reports the node down, and each resubscribe is counted after its key.
	waitUntil(t, "failover and resubscribes counted", func() bool {
		return g.mFailovers.Value() >= 1 && g.mFailoverResubs.Value() >= 1
	})
	if g.mFailoverDrops.Value() != 0 {
		t.Fatalf("dropped %d subscriptions with a survivor available", g.mFailoverDrops.Value())
	}
	waitUntil(t, "survivor compiled all filters", func() bool {
		return survivor.NumSubscriptions() == len(scriptFilters)
	})

	// Publishes now reach only the survivor and still match everything.
	pub, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	n, err := pub.Publish([]byte(`<order><status>new</status></order>`))
	if err != nil {
		t.Fatalf("publish after failover: %v", err)
	}
	if n != 2 { // //order and //order[status="new"]
		t.Fatalf("matches after failover = %d, want 2", n)
	}
	waitUntil(t, "post-failover delivery", func() bool { return s.tally.count() >= 2 })
}

// TestGateDurableThroughGate: durable subscribe routes by name, deliveries
// carry node offsets, acks are forwarded within the delivered window, and a
// reconnect under the same name resumes from the node-persisted cursor.
func TestGateDurableThroughGate(t *testing.T) {
	base := t.TempDir()
	var stores []*wal.CursorStore
	mkNode := func(sub string) *server.Server {
		l, err := wal.Open(wal.Options{Dir: filepath.Join(base, sub, "wal"), Fsync: wal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		cs, err := wal.OpenCursorStore(filepath.Join(base, sub, "cursors"))
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, cs)
		return startNode(t, server.Config{WAL: server.WrapWAL(l), Cursors: cs})
	}
	n1 := mkNode("n1")
	n2 := mkNode("n2")
	g := startGate(t, []string{n1.Addr(), n2.Addr()}, nil)

	col := &durCol{}
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col.deliver})
	if err != nil {
		t.Fatal(err)
	}
	_, resume, err := c.SubscribeDurable("audit", "//order")
	if err != nil {
		t.Fatalf("durable subscribe through gate: %v", err)
	}

	pub, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 3; i++ {
		if _, err := pub.Publish([]byte(fmt.Sprintf(`<order><sku>%d</sku></order>`, i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "3 durable deliveries", func() bool { return col.count() == 3 })

	// More filters under the same name are allowed (broker semantics: one
	// name per connection, any number of filters under it) and share the
	// name's node and offset sequence.
	if _, _, err := c.SubscribeDurable("audit", "/catalog/item"); err != nil {
		t.Fatalf("second filter under same durable name: %v", err)
	}
	if _, err := pub.Publish([]byte(`<catalog><item>z</item></catalog>`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "delivery via second filter", func() bool { return col.count() == 4 })

	// A second durable name on the same connection must be refused,
	// mirroring the broker's one-name-per-connection rule.
	if _, _, err := c.SubscribeDurable("other", "//order"); err == nil {
		t.Fatal("second durable name on one connection accepted")
	}

	// Ack the last delivered offset: inside the forwarded window.
	last := col.last()
	if err := c.Ack(last); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "ack forwarded", func() bool { return g.mAcksFwd.Value() >= 1 })
	if g.mAcksDropped.Value() != 0 {
		t.Fatalf("in-window ack dropped (%d)", g.mAcksDropped.Value())
	}
	// ACK is fire-and-forget end to end; wait for the owning node to
	// persist the cursor before reconnecting under the same name.
	waitUntil(t, "cursor persisted past ack", func() bool {
		for _, cs := range stores {
			if off, ok, _ := cs.Load("audit"); ok && off > last {
				return true
			}
		}
		return false
	})
	c.Close()

	// Reconnect under the same name: replay resumes past the acked cursor,
	// from the node-persisted offset.
	col2 := &durCol{}
	c2, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col2.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, resume2, err := c2.SubscribeDurable("audit", "//order")
	if err != nil {
		t.Fatal(err)
	}
	if resume2 <= resume {
		t.Fatalf("resume did not advance after ack: %d -> %d", resume, resume2)
	}
	if _, err := pub.Publish([]byte(`<order><sku>9</sku></order>`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "post-reconnect durable delivery", func() bool { return col2.count() >= 1 })
}

// durCol collects durable deliveries and their offsets.
type durCol struct {
	mu   sync.Mutex
	offs []uint64
}

func (c *durCol) deliver(d client.Delivery) {
	if !d.Durable {
		return
	}
	c.mu.Lock()
	c.offs = append(c.offs, d.Offset)
	c.mu.Unlock()
}

func (c *durCol) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.offs)
}

func (c *durCol) last() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offs[len(c.offs)-1]
}

// TestGatePipelinedPublish drives PUBLISH_ASYNC through the gate: the
// window pipelines, every document is acked with its aggregate match
// count, and deliveries complete.
func TestGatePipelinedPublish(t *testing.T) {
	n1 := startNode(t, server.Config{})
	n2 := startNode(t, server.Config{})
	g := startGate(t, []string{n1.Addr(), n2.Addr()}, nil)

	s := &scriptSub{tally: newTally(), ord: map[uint64]int{}}
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: s.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Subscribe("//order")
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.ord[id] = 0
	s.mu.Unlock()

	pub, err := client.Dial(g.Addr(), client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	var acked, matched int
	var mu sync.Mutex
	p, err := pub.PublishPipelined(32, func(r client.PublishResult) {
		mu.Lock()
		defer mu.Unlock()
		acked++
		matched += r.Matches
		if r.Err != nil {
			t.Errorf("pipelined publish %d: %v", r.Seq, r.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const docs = 200
	for i := 0; i < docs; i++ {
		if _, err := p.Publish([]byte(fmt.Sprintf(`<order><sku>%d</sku></order>`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if acked != docs || matched != docs {
		mu.Unlock()
		t.Fatalf("acked %d matched %d, want %d each", acked, matched, docs)
	}
	mu.Unlock()
	waitUntil(t, "pipelined deliveries", func() bool { return s.tally.count() == docs })
}

// TestGateConcurrentPublishersAckOnce: many publishers share the one node
// pipeline, so a node ack can arrive while another publisher is still
// submitting. Every publish acks exactly once with the direct broker's
// match count, and the node pipeline settles each fan-out exactly once.
func TestGateConcurrentPublishersAckOnce(t *testing.T) {
	filters := []string{"//order", "//order[total>100]", "//sku", "/order/sku"}
	doc := func(i int) []byte {
		return []byte(fmt.Sprintf(`<order><total>%d</total><sku>%d</sku></order>`, i%200, i))
	}
	const publishers, each = 8, 60
	subscribe := func(addr string) *client.Client {
		c, err := client.Dial(addr, client.Options{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		for _, f := range filters {
			if _, err := c.Subscribe(f); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	direct := startNode(t, server.Config{})
	dc := subscribe(direct.Addr())
	want := make([]int, publishers*each)
	for i := range want {
		n, err := dc.Publish(doc(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}

	node := startNode(t, server.Config{})
	g := startGate(t, []string{node.Addr()}, nil)
	subscribe(g.Addr())
	var wg sync.WaitGroup
	for w := 0; w < publishers; w++ {
		c, err := client.Dial(g.Addr(), client.Options{Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			if w%2 == 0 { // blocking publishes
				for k := 0; k < each; k++ {
					i := w*each + k
					if n, err := c.Publish(doc(i)); err != nil || n != want[i] {
						t.Errorf("publish %d: %d matches, %v; direct broker %d", i, n, err, want[i])
					}
				}
				return
			}
			var mu sync.Mutex
			acks := map[uint64]int{}
			p, err := c.PublishPipelined(16, func(r client.PublishResult) {
				mu.Lock()
				defer mu.Unlock()
				acks[r.Seq]++
				if i := w*each + int(r.Seq) - 1; r.Err != nil || r.Matches != want[i] {
					t.Errorf("pipelined publish %d: %d matches, %v; direct broker %d", i, r.Matches, r.Err, want[i])
				}
			})
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < each; k++ {
				if _, err := p.Publish(doc(w*each + k)); err != nil {
					t.Error(err)
				}
			}
			if err := p.Close(); err != nil {
				t.Error(err)
			}
			mu.Lock()
			defer mu.Unlock()
			for seq := uint64(1); seq <= each; seq++ {
				if acks[seq] != 1 {
					t.Errorf("publisher %d seq %d acked %d times", w, seq, acks[seq])
				}
			}
		}(w, c)
	}
	wg.Wait()
	if got := g.pubs[node.Addr()].hist.Snapshot().Count; got != publishers*each {
		t.Fatalf("node pipeline settled %d fan-outs, want %d", got, publishers*each)
	}
}

// gateFamilies is the gate's whole metric surface, each family with its
// TYPE, sorted by name as a scrape serves it (tracing on). A family added or
// removed shows up here; each fact is exported once, in one form.
var gateFamilies = []string{
	"xpushgate_acks_dropped_total counter",
	"xpushgate_acks_forwarded_total counter",
	"xpushgate_connections gauge",
	"xpushgate_deliveries_forwarded_total counter",
	"xpushgate_failover_dropped_subscriptions_total counter",
	"xpushgate_failover_resubscribes_total counter",
	"xpushgate_failovers_total counter",
	"xpushgate_node_ack_latency_seconds summary",
	"xpushgate_node_live_keys gauge",
	"xpushgate_node_up gauge",
	"xpushgate_publish_errors_total counter",
	"xpushgate_publish_fanout_nodes histogram",
	"xpushgate_publishes_total counter",
	"xpushgate_subscribe_latency_seconds summary",
	"xpushgate_subscriptions gauge",
	"xpushgate_traces_kept_total counter",
	"xpushgate_traces_started_total counter",
	"xpushgate_unsubscribe_latency_seconds summary",
}

// TestGateMetricsAndDebug scrapes the gate's observability surface.
func TestGateMetricsAndDebug(t *testing.T) {
	n1 := startNode(t, server.Config{})
	n2 := startNode(t, server.Config{})
	g := startGate(t, []string{n1.Addr(), n2.Addr()}, func(c *Config) {
		c.MetricsAddr = "127.0.0.1:0"
		c.TraceSample = 1
	})
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Subscribe("//order"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish([]byte(`<order/>`)); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, "http://"+g.MetricsAddr()+"/metrics")
	var got []string
	for _, line := range strings.Split(body, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, f)
		}
	}
	if !slices.Equal(got, gateFamilies) {
		t.Errorf("gate families (name TYPE, sorted):\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(gateFamilies, "\n"))
	}
	for _, want := range []string{
		fmt.Sprintf("xpushgate_node_up{node=%q} 1", n1.Addr()),
		fmt.Sprintf("xpushgate_node_up{node=%q} 1", n2.Addr()),
		"xpushgate_node_live_keys{",
		"xpushgate_publish_fanout_nodes_count 1",
		"xpushgate_node_ack_latency_seconds_count{",
		"xpushgate_publishes_total 1",
		"xpushgate_failovers_total 0",
		"xpushgate_connections 1",
		"xpushgate_subscriptions 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("metrics body:\n%s", body)
	}

	if got := httpGet(t, "http://"+g.MetricsAddr()+"/healthz"); got != "ok\n" {
		t.Fatalf("healthz = %q", got)
	}

	var dbg struct {
		Nodes []struct {
			Node     string `json:"node"`
			Up       bool   `json:"up"`
			LiveKeys int64  `json:"live_keys"`
		} `json:"nodes"`
		Connections   int64 `json:"connections"`
		Subscriptions int64 `json:"subscriptions"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+g.MetricsAddr()+"/debug/cluster")), &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Nodes) != 2 || !dbg.Nodes[0].Up || !dbg.Nodes[1].Up {
		t.Fatalf("debug nodes = %+v", dbg.Nodes)
	}
	if dbg.Connections != 1 || dbg.Subscriptions != 1 {
		t.Fatalf("debug totals = %+v", dbg)
	}
}

func httpGet(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
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

// TestGateRejectsBadFilter: a filter the canonicalizer rejects fails the
// subscribe with an error reply, not a dropped connection.
func TestGateRejectsBadFilter(t *testing.T) {
	n1 := startNode(t, server.Config{})
	g := startGate(t, []string{n1.Addr()}, nil)
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Subscribe("///not[a[valid"); err == nil {
		t.Fatal("invalid filter accepted")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after rejected filter: %v", err)
	}
}

// TestGateDurableNameRouting: the durable route key is the name, not the
// filter — two names with the same filter may land on different nodes, and
// the same name always lands on one.
func TestGateDurableNameRouting(t *testing.T) {
	r, err := NewRing([]string{"a:1", "b:2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := xpath.Canonicalize("//order")
	if err != nil {
		t.Fatal(err)
	}
	if r.Owner(durableRouteKey("x")) == r.Owner(canon) &&
		r.Owner(durableRouteKey("y")) == r.Owner(canon) &&
		r.Owner(durableRouteKey("z")) == r.Owner(canon) &&
		r.Owner(durableRouteKey("w")) == r.Owner(canon) {
		t.Fatal("durable names suspiciously co-located with their filter's owner")
	}
}
