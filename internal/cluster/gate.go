// Package cluster makes N unmodified xpushserve nodes look like one broker.
// Every node holds the whole filter workload: the Gate subscribes each
// filter on every node, sends each published document to one node,
// round-robin, and merges the nodes' delivery streams back per subscriber.
// A health-checked connection pool keeps a publish channel to every node.
//
// It is the documents that split, not the filters. The XPush machine does
// the same work per SAX event however many filters it holds, so a node
// given a slice of the filters would still scan and filter every document;
// a node given a share of the documents does a share of the work.
package cluster

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/server"
)

// Config configures a Gate.
type Config struct {
	// Addr is the subscriber-facing listen address ("" = 127.0.0.1:0).
	Addr string
	// Nodes is the static cluster membership (xpushserve addresses).
	Nodes []string
	// MetricsAddr, when non-empty, serves /metrics, /healthz and
	// /debug/cluster on that address.
	MetricsAddr string
	// Client configures every node-facing connection (downstream
	// subscription conns and the pool's publish conns). Timeout also bounds
	// a publish's wait for its node's ack (defaulted to 10s).
	Client client.Options
	// Backoff shapes the pool's reconnect schedule.
	Backoff client.Backoff
	// PingInterval is the pool's health-check cadence (0 = default).
	PingInterval time.Duration
	// TraceSample enables the gate's cross-hop trace recorder: one of
	// every N publishes gets a trace whose id is propagated to the node the
	// document goes to (<= 0 disables).
	TraceSample int
	// TraceSlow additionally keeps any publish slower than the
	// threshold (0 disables tail capture).
	TraceSlow time.Duration
	// NodeDebug lists the nodes' introspection addresses, parallel to
	// Nodes. /debug/cluster/traces fetches each node's /debug/traces from
	// these to merge node-side spans into the gate's traces; when empty
	// (or mismatched in length) merged traces carry only gate spans.
	NodeDebug []string
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Gate is the cluster ingress: it terminates subscriber connections
// speaking the ordinary framed protocol, subscribes every filter on every
// node, sends each published document to one node, round-robin, and merges
// the nodes' delivery streams back per subscriber. A publish acks with the
// one node's ack and match count. To the client a gate is indistinguishable
// from one big xpushserve.
type Gate struct {
	cfg   Config
	nodes []string   // distinct and sorted: a node's index is its offsets' node byte
	pubs  []*nodePub // parallel to nodes
	next  atomic.Uint64
	pool  *Pool
	ln    net.Listener
	hln   net.Listener
	hsrv  *http.Server
	reg   *obs.Registry

	mu     sync.Mutex
	conns  map[*gconn]struct{}
	closed bool
	quit   chan struct{} // closed by Close: stops the resync goroutines
	wg     sync.WaitGroup

	// tracer head-samples publishes; nil when tracing is off. active
	// indexes in-flight gate publish traces by id so downstream read loops
	// can attach merge-write spans to them (best effort: a delivery
	// arriving after the publish settled records nothing).
	tracer    *trace.Recorder
	nodeDebug map[string]string // node addr -> introspection addr
	traceMu   sync.Mutex
	active    map[uint64]*trace.Ctx

	subLat   obs.Histogram // subscriber-visible SUBSCRIBE round-trip seconds
	unsubLat obs.Histogram // subscriber-visible UNSUBSCRIBE round-trip seconds

	mConns         atomic.Int64
	mSubs          atomic.Int64
	mPublishes     *obs.Counter
	mPublishErrs   *obs.Counter
	mDeliveriesFwd *obs.Counter
	mAcksFwd       *obs.Counter
	mAcksDropped   *obs.Counter
	mFailovers     *obs.Counter
	mResubscribes  *obs.Counter
}

// New starts a gate: it checks the membership, starts the node pool, binds
// the subscriber listener (and the metrics listener, if configured), and
// begins accepting. Node connections come up asynchronously; /healthz
// reports degraded until every node is connected.
func New(cfg Config) (*Gate, error) {
	nodes, err := distinct(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	slices.Sort(nodes) // a node's index is the node byte of its durable offsets
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	g := &Gate{
		cfg:       cfg,
		nodes:     nodes,
		ln:        ln,
		conns:     map[*gconn]struct{}{},
		quit:      make(chan struct{}),
		tracer:    trace.New(cfg.TraceSample, cfg.TraceSlow),
		nodeDebug: map[string]string{},
		active:    map[uint64]*trace.Ctx{},
		reg:       obs.NewRegistry(),
	}
	if len(cfg.NodeDebug) == len(cfg.Nodes) {
		for i, n := range cfg.Nodes {
			if cfg.NodeDebug[i] != "" {
				g.nodeDebug[n] = cfg.NodeDebug[i]
			}
		}
	}
	for _, n := range nodes {
		g.pubs = append(g.pubs, &nodePub{node: n})
	}
	g.registerMetrics()
	g.pool = NewPool(nodes, PoolOptions{
		Client:       cfg.Client,
		Backoff:      cfg.Backoff,
		PingInterval: cfg.PingInterval,
		OnUp:         g.onNodeUp,
		OnDown:       g.onNodeDown,
	})
	if cfg.MetricsAddr != "" {
		hln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			ln.Close()
			g.pool.Close()
			return nil, err
		}
		g.hln = hln
		mux := g.reg.NewMuxWithStatus(g.health)
		mux.HandleFunc("/debug/cluster", g.debugCluster)
		mux.HandleFunc("/debug/cluster/traces", g.debugClusterTraces)
		mux.Handle("/debug/traces", g.tracer.Handler())
		g.hsrv = &http.Server{Handler: mux}
		go g.hsrv.Serve(hln)
	}
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr returns the subscriber-facing listen address.
func (g *Gate) Addr() string { return g.ln.Addr().String() }

// MetricsAddr returns the metrics listen address ("" if not configured).
func (g *Gate) MetricsAddr() string {
	if g.hln == nil {
		return ""
	}
	return g.hln.Addr().String()
}

func (g *Gate) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

func (g *Gate) acceptLoop() {
	defer g.wg.Done()
	for {
		nc, err := g.ln.Accept()
		if err != nil {
			return
		}
		cn := newGconn(g, nc)
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			nc.Close()
			return
		}
		g.conns[cn] = struct{}{}
		g.mu.Unlock()
		g.mConns.Add(1)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			cn.ss.Serve()
			cn.teardown()
			g.mu.Lock()
			delete(g.conns, cn)
			g.mu.Unlock()
			g.mConns.Add(-1)
		}()
	}
}

// connList returns the open subscriber connections and whether the gate
// was closed already; closing marks it closed.
func (g *Gate) connList(closing bool) ([]*gconn, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	was := g.closed
	g.closed = was || closing
	conns := make([]*gconn, 0, len(g.conns))
	for cn := range g.conns {
		conns = append(conns, cn)
	}
	return conns, was
}

// nodeIndex returns node's index in the sorted membership.
func (g *Gate) nodeIndex(node string) int {
	i, _ := slices.BinarySearch(g.nodes, node)
	return i
}

// onNodeUp runs on the pool's manage goroutine with a freshly probed
// connection. The node is marked stale before its publish pipeline is
// attached, so it gets no document until every subscriber connection has
// placed its filters there.
func (g *Gate) onNodeUp(node string, c *client.Client) {
	i := g.nodeIndex(node)
	g.pubs[i].down.Store(false)
	g.markStale(i)
	pipe, err := c.PublishPipelined(server.PublishWindow, nil)
	if err != nil {
		return // the connection is already dying; the pool will cycle it
	}
	g.pubs[i].pipe.Store(pipe)
	g.logf("cluster: node %s up", node)
}

// onNodeDown runs on the pool's manage goroutine after a node's connection
// died: mark it down and detach its pipeline, so publishes go to the other
// nodes, which hold every filter already. The publishes still in flight on
// it settle with the connection's error when the pool closes the
// connection.
func (g *Gate) onNodeDown(node string, err error) {
	np := g.pubs[g.nodeIndex(node)]
	np.down.Store(true)
	np.pipe.Store(nil)
	select {
	case <-g.quit:
		return
	default:
	}
	g.mFailovers.Inc()
	g.logf("cluster: node %s down (%v); publishing to the others", node, err)
}

// markStale records that node i may lack some subscription: it takes no
// publish until a resync goroutine has placed every connection's
// subscriptions there.
func (g *Gate) markStale(i int) {
	np := g.pubs[i]
	np.mu.Lock()
	defer np.mu.Unlock()
	np.stale.Store(true)
	if np.again = np.syncing; !np.syncing {
		np.syncing = true
		g.wg.Add(1)
		go g.resync(i)
	}
}

// resync places every connection's subscriptions on node i, backing off
// after a failed pass, until none is missing there or the node is proven
// down (it is marked stale again when it comes back). It lifts the mark
// only if no new one came in during its last pass.
func (g *Gate) resync(i int) {
	defer g.wg.Done()
	np := g.pubs[i]
	var wait, backoff time.Duration
	for {
		select {
		case <-g.quit:
			return
		case <-time.After(wait):
		}
		np.mu.Lock()
		np.again = false
		np.mu.Unlock()
		var err error
		conns, _ := g.connList(false)
		for _, cn := range conns {
			if e := cn.sync(i); e != nil {
				err = e
			}
		}
		np.mu.Lock()
		if !np.again && (err == nil || np.down.Load()) {
			np.syncing = false
			np.stale.Store(false)
			np.mu.Unlock()
			return
		}
		np.mu.Unlock()
		if wait = 0; err != nil {
			g.logf("cluster: re-subscribing on %s: %v", np.node, err)
			backoff = min(max(2*backoff, g.cfg.Backoff.Min, 50*time.Millisecond), max(g.cfg.Backoff.Max, 2*time.Second))
			wait = backoff
		}
	}
}

// traceRef resolves a forwarded delivery's trace id to the in-flight gate
// trace, taking a reference the caller must Finish. The map holds only
// traces whose publish path still owns a reference (publish removes the
// entry before its Finish), so the Ref here can never race a final
// release.
func (g *Gate) traceRef(id uint64) *trace.Ctx {
	if id == 0 {
		return nil
	}
	g.traceMu.Lock()
	tc := g.active[id]
	if tc != nil {
		tc.Ref()
	}
	g.traceMu.Unlock()
	return tc
}

// publish sends doc to one node: the nodes are taken in turn from a
// rotating start, skipping those without a live pipeline, those that may
// lack a subscription, and those whose pipeline refuses the document (a
// refused document was never accepted, so the next node may take it). The
// client gets that node's ack and match count, or its error: a document a
// node accepted is never sent again. remoteID is the trace id the
// subscriber's frame carried (0 = untraced), which wins over local
// sampling so the whole path shares one id; a traced publish records the
// node hop as a span closed by the node's ack and propagates the trace id
// on the node-bound frame.
func (g *Gate) publish(doc []byte, remoteID uint64) (int, error) {
	g.mPublishes.Inc()
	var tc *trace.Ctx
	if remoteID != 0 {
		tc = g.tracer.BeginRemote("gate_publish", remoteID, time.Now())
	} else {
		tc = g.tracer.Begin("gate_publish")
	}
	tid := remoteID
	if tc != nil {
		// active lets delivery forwarding attach merge-write spans.
		tid = tc.ID
		g.traceMu.Lock()
		g.active[tc.ID] = tc
		g.traceMu.Unlock()
		defer func() {
			g.traceMu.Lock()
			delete(g.active, tc.ID)
			g.traceMu.Unlock()
			tc.Finish()
		}()
	}
	res := make(chan client.PublishResult, 1)
	first := int(g.next.Add(1) % uint64(len(g.pubs)))
	for k := 0; !g.pubs[(first+k)%len(g.pubs)].submit(doc, tid, tc, res); k++ {
		if k == len(g.pubs)-1 {
			g.mPublishErrs.Inc()
			return 0, errors.New("cluster: no node connected that holds every subscription")
		}
	}
	timeout := cmp.Or(max(g.cfg.Client.Timeout, 0), 10*time.Second)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-res:
		if r.Err != nil {
			g.mPublishErrs.Inc()
			return 0, r.Err
		}
		return r.Matches, nil
	case <-t.C:
		g.mPublishErrs.Inc()
		return 0, fmt.Errorf("cluster: publish timed out after %v waiting for the node's ack", timeout)
	}
}

// nodePub is one node's publish plane: the pool connection's pipeline,
// which maps each node ack to its publish, and the node's ack latency.
type nodePub struct {
	node string
	hist obs.Histogram // ack latency, seconds
	pipe atomic.Pointer[client.Pipeline]
	// down is set while the node is proven down (OnDown fired, OnUp not
	// yet): subscriptions skip it and reach it when it comes back. A node
	// that has never connected is not down, so the gate can subscribe
	// before the pool's first connect completes.
	down atomic.Bool
	// stale is set while the node may lack some subscription; it takes
	// no publish then. Under mu, syncing says a resync runs to clear it,
	// and again that a mark came in since its pass began.
	stale          atomic.Bool
	mu             sync.Mutex
	syncing, again bool
}

// errNodeDown is a placement skipped because the node is proven down.
var errNodeDown = errors.New("xpushgate: no cluster node available")

// parallel runs f(0) ... f(n-1) at once and waits for them all.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// submit offers doc to the node's pipeline and reports whether the node
// took it. If it did, res receives the node's ack, or the connection's
// error if the node goes away first. traceID, when non-zero, rides the
// frame so the node's trace adopts the gate's id (the cross-hop merge key).
func (np *nodePub) submit(doc []byte, traceID uint64, tc *trace.Ctx, res chan<- client.PublishResult) bool {
	pipe := np.pipe.Load()
	if pipe == nil || np.stale.Load() {
		return false
	}
	var sp trace.SpanID
	if tc != nil {
		// The ack arrives on the node connection's read loop, maybe after
		// the publish timed out, so the span holds its own reference.
		tc.Ref()
		sp = tc.StartSpan("publish "+np.node, trace.Root)
	}
	start := time.Now()
	_, err := pipe.Submit(doc, traceID, func(r client.PublishResult) {
		np.hist.Observe(time.Since(start).Seconds())
		tc.SetAttr(sp, "matches", int64(r.Matches))
		tc.EndSpan(sp)
		tc.Finish()
		res <- r
	})
	if err != nil {
		tc.EndSpan(sp)
		tc.Finish()
		return false
	}
	return true
}

// health backs /healthz: degraded while any node lacks a live connection.
// The body names every disconnected node, not just the first, so one curl
// tells an operator the full blast radius.
func (g *Gate) health() (bool, string) {
	var down []string
	for _, n := range g.nodes {
		if !g.pool.Up(n) {
			down = append(down, n)
		}
	}
	if len(down) > 0 {
		return false, "degraded: nodes not connected: " + strings.Join(down, ", ")
	}
	return true, "ok"
}

func (g *Gate) registerMetrics() {
	r := g.reg
	g.mPublishes = r.Counter("xpushgate_publishes_total", "Documents accepted for publish.")
	g.mPublishErrs = r.Counter("xpushgate_publish_errors_total", "Publishes that failed, timed out or found no node connected.")
	g.mDeliveriesFwd = r.Counter("xpushgate_deliveries_forwarded_total", "Delivery frames forwarded from nodes to subscribers.")
	g.mAcksFwd = r.Counter("xpushgate_acks_forwarded_total", "Durable acks forwarded to the node their offset names.")
	g.mAcksDropped = r.Counter("xpushgate_acks_dropped_total", "Durable acks dropped because their offset names no node, or a node the connection has no link to.")
	g.mFailovers = r.Counter("xpushgate_failovers_total", "Node-down events.")
	g.mResubscribes = r.Counter("xpushgate_failover_resubscribes_total", "Subscriptions placed on a node after the fact: it came back, or the link to it died or failed a subscribe.")
	r.GaugeFunc("xpushgate_connections", "Open subscriber connections.", func() float64 { return float64(g.mConns.Load()) })
	r.GaugeFunc("xpushgate_subscriptions", "Live subscriptions across all subscriber connections.", func() float64 { return float64(g.mSubs.Load()) })
	r.GaugeVecFunc("xpushgate_node_up", "Per-node connectivity (1 = live pool connection).", func() []obs.Labeled {
		out := make([]obs.Labeled, 0, len(g.nodes))
		for _, n := range g.nodes {
			v := 0.0
			if g.pool.Up(n) {
				v = 1
			}
			out = append(out, obs.Labeled{Labels: fmt.Sprintf("node=%q", n), Value: v})
		}
		return out
	})
	r.SummaryVecFunc("xpushgate_node_ack_latency_seconds", "Per-node publish ack latency.", nil, func() []obs.LabeledSnapshot {
		out := make([]obs.LabeledSnapshot, 0, len(g.pubs))
		for _, np := range g.pubs {
			out = append(out, obs.LabeledSnapshot{Labels: fmt.Sprintf("node=%q", np.node), Snap: np.hist.Snapshot()})
		}
		return out
	})
	r.SummaryFunc("xpushgate_subscribe_latency_seconds", "Subscriber-visible SUBSCRIBE round-trip latency (includes the node hops).", []float64{0.5, 0.9, 0.99}, g.subLat.Snapshot)
	r.SummaryFunc("xpushgate_unsubscribe_latency_seconds", "Subscriber-visible UNSUBSCRIBE round-trip latency (includes the node hops).", []float64{0.5, 0.9, 0.99}, g.unsubLat.Snapshot)
	if g.tracer.Enabled() {
		r.CounterFunc("xpushgate_traces_started_total", "Publish traces begun.", func() int64 {
			return g.tracer.Stats().Started
		})
		r.CounterFunc("xpushgate_traces_kept_total", "Publish traces retained in a ring.", func() int64 {
			return g.tracer.Stats().Kept
		})
	}
}

// debugCluster serves /debug/cluster: per-node health and ack latency and
// the gate's totals as JSON.
func (g *Gate) debugCluster(w http.ResponseWriter, req *http.Request) {
	type nodeInfo struct {
		NodeStatus
		Stale      bool        `json:"stale"` // may lack a subscription: takes no publish
		AckLatency obs.Summary `json:"ack_latency_seconds"`
	}
	snap := g.pool.Snapshot() // in g.nodes order
	nodes := make([]nodeInfo, 0, len(snap))
	for i, ns := range snap {
		nodes = append(nodes, nodeInfo{ns, g.pubs[i].stale.Load(), g.pubs[i].hist.Snapshot().Summary()})
	}
	out := struct {
		Nodes         []nodeInfo `json:"nodes"`
		Connections   int64      `json:"connections"`
		Subscriptions int64      `json:"subscriptions"`
		Failovers     int64      `json:"failovers"`
	}{nodes, g.mConns.Load(), g.mSubs.Load(), g.mFailovers.Value()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// Close stops accepting, tears down every subscriber connection, the node
// pool and the metrics listener, and waits for all gate goroutines.
func (g *Gate) Close() error {
	conns, closed := g.connList(true)
	if closed {
		return nil
	}
	g.ln.Close()
	close(g.quit)
	for _, cn := range conns {
		cn.ss.Close() // teardown, which follows the session's Serve, does the rest
	}
	g.pool.Close()
	if g.hsrv != nil {
		g.hsrv.Close()
	}
	g.wg.Wait()
	return nil
}
