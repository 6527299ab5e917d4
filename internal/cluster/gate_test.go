package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
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

// publishesOn reads a node's own count of the publishes it took.
func publishesOn(t testing.TB, n *server.Server) int {
	t.Helper()
	for _, line := range strings.Split(httpGet(t, "http://"+n.MetricsAddr()+"/metrics"), "\n") {
		if v, ok := strings.CutPrefix(line, "xpushserve_publishes_total "); ok {
			got, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
	}
	t.Fatalf("node %s exports no xpushserve_publishes_total", n.Addr())
	return 0
}

// TestGatePublishReachesOneNode: each publish goes to exactly one node, with
// that node's match count, and the nodes take turns.
func TestGatePublishReachesOneNode(t *testing.T) {
	n1 := startNode(t, server.Config{MetricsAddr: "127.0.0.1:0"})
	n2 := startNode(t, server.Config{MetricsAddr: "127.0.0.1:0"})
	g := startGate(t, []string{n1.Addr(), n2.Addr()}, nil)
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Subscribe("//order"); err != nil {
		t.Fatal(err)
	}
	const docs = 200
	for i := 0; i < docs; i++ {
		if n, err := c.Publish([]byte(`<order/>`)); err != nil || n != 1 {
			t.Fatalf("publish %d: %d matches, %v; want 1", i, n, err)
		}
	}
	sum := 0
	for _, n := range []*server.Server{n1, n2} {
		got := publishesOn(t, n)
		if got < docs*40/100 || got > docs*60/100 {
			t.Errorf("node %s took %d of %d publishes, want 40-60%%", n.Addr(), got, docs)
		}
		sum += got
	}
	if sum != docs {
		t.Fatalf("nodes took %d publishes in all, want %d", sum, docs)
	}
}

// TestGateFailoverResubscribes is the node-kill acceptance test. Every node
// holds every filter, so when one dies deliveries go on from the survivor
// with nothing re-subscribed; when it comes back on its address, the gate's
// connection re-subscribes its filters there before publishes reach it.
func TestGateFailoverResubscribes(t *testing.T) {
	n1 := startNode(t, server.Config{})
	n2 := startNode(t, server.Config{})
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
	for _, n := range []*server.Server{n1, n2} {
		if got := n.NumSubscriptions(); got != len(scriptFilters) {
			t.Fatalf("node %s holds %d subscriptions, want all %d", n.Addr(), got, len(scriptFilters))
		}
	}
	pub, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	publish := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			n, err := pub.Publish([]byte(`<order><status>new</status></order>`))
			if err != nil {
				t.Fatalf("publish: %v", err)
			}
			if n != 2 { // //order and //order[status="new"]
				t.Fatalf("publish matched %d, want 2", n)
			}
		}
	}

	victim, survivor := n1, n2
	victimAddr := victim.Addr()
	victim.Close()
	waitUntil(t, "node down noticed", func() bool { return g.mFailovers.Value() >= 1 })
	publish(10)
	waitUntil(t, "deliveries from the survivor", func() bool { return s.tally.count() == 20 })
	if got := g.mResubscribes.Value(); got != 0 {
		t.Fatalf("%d subscriptions re-placed while the survivor held them all", got)
	}
	if got := survivor.NumSubscriptions(); got != len(scriptFilters) {
		t.Fatalf("survivor holds %d subscriptions, want %d", got, len(scriptFilters))
	}

	// The victim comes back on its address with no subscriptions.
	back := startNode(t, server.Config{Addr: victimAddr})
	vi := g.nodeIndex(victimAddr)
	waitUntil(t, "returning node re-subscribed and publishing", func() bool {
		return g.pubs[vi].pipe.Load() != nil && !g.pubs[vi].stale.Load()
	})
	if got := back.NumSubscriptions(); got != len(scriptFilters) {
		t.Fatalf("returning node holds %d subscriptions, want %d", got, len(scriptFilters))
	}
	if got := g.mResubscribes.Value(); got != int64(len(scriptFilters)) {
		t.Fatalf("%d re-subscribes counted, want %d", got, len(scriptFilters))
	}
	publish(10)
	waitUntil(t, "deliveries from both nodes", func() bool { return s.tally.count() == 40 })
	if g.pubs[vi].hist.Snapshot().Count == 0 {
		t.Fatal("the returning node took no publish")
	}
}

// TestGateSubscribeFailureKeepsPublishesOff: a node that is up but fails
// to take a subscription gets no publish until the gate has placed it
// there, so no matching document goes undelivered. The node refuses the
// subscriber's downstream connection: its connection limit is held by the
// gate's pool connection and one other client.
func TestGateSubscribeFailureKeepsPublishesOff(t *testing.T) {
	n1 := startNode(t, server.Config{})
	n2 := startNode(t, server.Config{MaxConns: 2})
	var failures atomic.Int64
	g := startGate(t, []string{n1.Addr(), n2.Addr()}, func(cfg *Config) {
		cfg.MetricsAddr = "127.0.0.1:0"
		cfg.Logf = func(format string, _ ...any) {
			if strings.HasPrefix(format, "cluster: re-subscribing on") {
				failures.Add(1)
			}
		}
	})
	hog, err := client.Dial(n2.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	if err := hog.Ping(); err != nil {
		t.Fatal(err)
	}

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
	full := g.pubs[g.nodeIndex(n2.Addr())]
	if n2.NumSubscriptions() != 0 || !full.stale.Load() {
		t.Fatalf("node at its connection limit holds %d subscriptions, stale %v", n2.NumSubscriptions(), full.stale.Load())
	}
	var dbg struct {
		Nodes []struct {
			Node  string `json:"node"`
			Stale bool   `json:"stale"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+g.MetricsAddr()+"/debug/cluster")), &dbg); err != nil {
		t.Fatal(err)
	}
	for _, n := range dbg.Nodes {
		if n.Stale != (n.Node == n2.Addr()) {
			t.Fatalf("/debug/cluster: node %s stale=%v", n.Node, n.Stale)
		}
	}

	publish := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if n, err := c.Publish([]byte(fmt.Sprintf(`<order><sku>%d</sku></order>`, i))); err != nil || n != 1 {
				t.Fatalf("publish %d: %d matches, %v; want 1", i, n, err)
			}
		}
	}
	publish(0, 50)
	waitUntil(t, "every document delivered", func() bool { return s.tally.count() == 50 })
	if got := full.hist.Snapshot().Count; got != 0 {
		t.Fatalf("the node lacking the subscription took %d publishes", got)
	}
	// The gate retries the node with backoff (10ms doubling to 100ms), not
	// in a loop.
	time.Sleep(300 * time.Millisecond)
	if n := failures.Load(); n == 0 || n > 20 {
		t.Fatalf("%d failed re-subscribes in 300ms, want a backed-off few", n)
	}

	// Room on the node: the retry places the subscription, and the node
	// takes publishes again.
	hog.Close()
	waitUntil(t, "subscription placed on the node", func() bool {
		return n2.NumSubscriptions() == 1 && !full.stale.Load()
	})
	publish(50, 100)
	waitUntil(t, "every document delivered", func() bool { return s.tally.count() == 100 })
	if full.hist.Snapshot().Count == 0 {
		t.Fatal("the node took no publish once it held the subscription")
	}
	for doc, n := range s.tally.snapshot()[0] {
		if n != 1 {
			t.Fatalf("%q delivered %d times", doc, n)
		}
	}
}

// walNode is a WAL-backed node whose log and cursor directories outlive it,
// so that it can restart on them.
type walNode struct {
	dir  string
	srv  *server.Server
	log  *wal.Log
	curs *wal.CursorStore
}

// startWALNode boots a node on dir's log and cursors, at addr ("" = any
// port).
func startWALNode(t *testing.T, dir, addr string) *walNode {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cs, err := wal.OpenCursorStore(filepath.Join(dir, "cursors"))
	if err != nil {
		t.Fatal(err)
	}
	return &walNode{dir: dir, log: l, curs: cs, srv: startNode(t, server.Config{Addr: addr, WAL: server.WrapWAL(l), Cursors: cs})}
}

// stop closes the node and its log, keeping both directories.
func (n *walNode) stop() {
	n.srv.Close()
	n.log.Close()
}

// cursorPast reports whether the node's cursor for name has moved past the
// node offset of off, an offset as the gate forwards it.
func (n *walNode) cursorPast(name string, off uint64) bool {
	cur, ok, _ := n.curs.Load(name)
	return ok && cur > off&nodeMask
}

// nodeMask keeps a forwarded offset's node-local bits.
const nodeMask = 1<<nodeShift - 1

// startWALPair boots two WAL-backed nodes and a gate over them, and returns
// the nodes in the gate's index order.
func startWALPair(t *testing.T) (*Gate, [2]*walNode) {
	base := t.TempDir()
	a := startWALNode(t, filepath.Join(base, "a"), "")
	b := startWALNode(t, filepath.Join(base, "b"), "")
	g := startGate(t, []string{a.srv.Addr(), b.srv.Addr()}, nil)
	if g.nodeIndex(a.srv.Addr()) == 1 {
		a, b = b, a
	}
	return g, [2]*walNode{a, b}
}

// TestGateDurableThroughGate: a durable subscription through the gate holds
// its name on every node. Deliveries carry their node's index in the
// offset's top byte, acks route by it, each node's cursor advances past
// what was acked on it, and a reconnect under the name gets no acked
// document again.
func TestGateDurableThroughGate(t *testing.T) {
	g, nodes := startWALPair(t)

	col := &durCol{}
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col.deliver})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubscribeDurable("audit", "//order"); err != nil {
		t.Fatalf("durable subscribe through gate: %v", err)
	}

	pub, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 6; i++ {
		if _, err := pub.Publish([]byte(fmt.Sprintf(`<order><sku>%d</sku></order>`, i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "6 durable deliveries", func() bool { return col.count() == 6 })

	// More filters under the same name are allowed (broker semantics: one
	// name per connection, any number of filters under it).
	if _, _, err := c.SubscribeDurable("audit", "/catalog/item"); err != nil {
		t.Fatalf("second filter under same durable name: %v", err)
	}
	if _, err := pub.Publish([]byte(`<catalog><item>z</item></catalog>`)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "delivery via second filter", func() bool { return col.count() == 7 })

	// A second durable name on the same connection must be refused,
	// mirroring the broker's one-name-per-connection rule.
	if _, _, err := c.SubscribeDurable("other", "//order"); err == nil {
		t.Fatal("second durable name on one connection accepted")
	}

	// Ack the last offset delivered from each node.
	last := col.lastByNode()
	if len(last) != 2 {
		t.Fatalf("deliveries came from nodes %v, want both", last)
	}
	for _, off := range last {
		if err := c.Ack(off); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "acks forwarded", func() bool { return g.mAcksFwd.Value() == 2 })
	if g.mAcksDropped.Value() != 0 {
		t.Fatalf("acks dropped (%d)", g.mAcksDropped.Value())
	}
	for i, off := range last {
		waitUntil(t, fmt.Sprintf("node %d cursor past its ack", i), func() bool { return nodes[i].cursorPast("audit", off) })
	}
	c.Close()

	// Reconnect under the same name: every node resumes past its own ack.
	col2 := &durCol{}
	c2, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col2.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, err := c2.SubscribeDurable("audit", "//order"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := pub.Publish([]byte(fmt.Sprintf(`<order><sku>%d</sku></order>`, 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "post-reconnect durable deliveries", func() bool { return col2.count() >= 2 })
	for _, d := range col2.since(0) {
		if d.off <= last[d.off>>nodeShift] {
			t.Errorf("acked document %q delivered again at offset %#x", d.doc, d.off)
		}
	}
}

// TestGateDurableSurvivesNodeRestart: a node that dies with unacked durable
// documents in its log delivers every one of them once it restarts on its
// directories, while the other node takes the publishes in between.
func TestGateDurableSurvivesNodeRestart(t *testing.T) {
	g, nodes := startWALPair(t)
	survivor, victim := nodes[0], nodes[1]

	col := &durCol{}
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.SubscribeDurable("audit", "//order"); err != nil {
		t.Fatal(err)
	}
	pub, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	publish := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := pub.Publish([]byte(fmt.Sprintf(`<order><sku>%d</sku></order>`, i))); err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
		}
	}
	publish(0, 10)
	waitUntil(t, "10 durable deliveries", func() bool { return col.count() == 10 })

	// Ack the victim's first document only.
	var first *durDelivery
	unacked := map[string]bool{}
	for _, d := range col.since(0) {
		if d.off>>nodeShift != 1 {
			continue
		}
		if first == nil {
			first = &d
		} else {
			unacked[d.doc] = true
		}
	}
	if first == nil || len(unacked) == 0 {
		t.Fatalf("the victim logged too few documents: %+v", col.since(0))
	}
	if err := c.Ack(first.off); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "victim cursor past its ack", func() bool { return victim.cursorPast("audit", first.off) })

	addr := victim.srv.Addr()
	victim.stop()
	waitUntil(t, "node down noticed", func() bool { return g.mFailovers.Value() >= 1 })
	publish(10, 14)
	waitUntil(t, "deliveries while the victim is down", func() bool { return col.count() == 14 })
	for _, d := range col.since(10) {
		if d.off>>nodeShift != 0 {
			t.Fatalf("%q delivered from node %d while it was down", d.doc, d.off>>nodeShift)
		}
	}
	if survivor.srv.NumSubscriptions() != 1 {
		t.Fatalf("survivor holds %d subscriptions", survivor.srv.NumSubscriptions())
	}

	// The victim restarts on its directories and address: the gate
	// subscribes the name there again and the node replays what was not
	// acked.
	startWALNode(t, victim.dir, addr)
	waitUntil(t, "unacked documents delivered again", func() bool {
		got := map[string]bool{}
		for _, d := range col.since(14) {
			if d.off>>nodeShift == 1 {
				got[d.doc] = true
			}
		}
		for doc := range unacked {
			if !got[doc] {
				return false
			}
		}
		return true
	})
}

// TestGateAckRoutesByNode: an ACK reaches only the node its offset's top
// byte names, carrying that node's own offset; an offset whose top byte
// names no node is dropped and counted.
func TestGateAckRoutesByNode(t *testing.T) {
	g, nodes := startWALPair(t)
	col := &durCol{}
	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second, OnDeliver: col.deliver})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.SubscribeDurable("audit", "//order"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Publish([]byte(fmt.Sprintf(`<order><sku>%d</sku></order>`, i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "one delivery from each node", func() bool { return len(col.lastByNode()) == 2 })
	off := col.lastByNode()[0]
	before, _, _ := nodes[1].curs.Load("audit")
	if err := c.Ack(off); err != nil {
		t.Fatal(err)
	}
	// The gate handles a connection's acks in order, so once the unknown
	// node's ack is counted the first one has gone wherever it went.
	if err := c.Ack(uint64(len(nodes)+3)<<nodeShift | off&nodeMask); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "unknown node's ack dropped", func() bool { return g.mAcksDropped.Value() == 1 })
	if got := g.mAcksFwd.Value(); got != 1 {
		t.Fatalf("%d acks forwarded, want 1", got)
	}
	waitUntil(t, "node 0 cursor past the ack", func() bool { return nodes[0].cursorPast("audit", off) })
	if cur, _, _ := nodes[0].curs.Load("audit"); cur != off&nodeMask+1 {
		t.Fatalf("node 0 cursor %#x, want %#x: the node byte reached the node", cur, off&nodeMask+1)
	}
	time.Sleep(100 * time.Millisecond)
	if cur, _, _ := nodes[1].curs.Load("audit"); cur != before {
		t.Fatalf("node 1 cursor moved from %#x to %#x by an ack for node 0", before, cur)
	}
}

// durDelivery is one durable delivery: its offset as the gate forwards it,
// and its document.
type durDelivery struct {
	off uint64
	doc string
}

// durCol collects durable deliveries in arrival order.
type durCol struct {
	mu  sync.Mutex
	got []durDelivery
}

func (c *durCol) deliver(d client.Delivery) {
	if !d.Durable {
		return
	}
	c.mu.Lock()
	c.got = append(c.got, durDelivery{d.Offset, string(d.Doc)})
	c.mu.Unlock()
}

func (c *durCol) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// since returns the deliveries after the first k.
func (c *durCol) since(k int) []durDelivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.got[k:])
}

// lastByNode returns the highest offset delivered from each node, keyed by
// the offset's node byte.
func (c *durCol) lastByNode() map[uint64]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[uint64]uint64{}
	for _, d := range c.got {
		out[d.off>>nodeShift] = max(out[d.off>>nodeShift], d.off)
	}
	return out
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
	if got := g.pubs[0].hist.Snapshot().Count; got != publishers*each {
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
	"xpushgate_failover_resubscribes_total counter",
	"xpushgate_failovers_total counter",
	"xpushgate_node_ack_latency_seconds summary",
	"xpushgate_node_up gauge",
	"xpushgate_publish_errors_total counter",
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
			Node string `json:"node"`
			Up   bool   `json:"up"`
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
