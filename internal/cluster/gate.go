package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
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
	// a fan-out publish's wait for all node acks (defaulted to 10s).
	Client client.Options
	// Backoff shapes the pool's reconnect schedule.
	Backoff client.Backoff
	// PingInterval is the pool's health-check cadence (0 = default).
	PingInterval time.Duration
	// TraceSample enables the gate's cross-hop trace recorder: one of
	// every N fan-out publishes gets a trace whose id is propagated to
	// every node the document reaches (<= 0 disables).
	TraceSample int
	// TraceSlow additionally keeps any fan-out publish slower than the
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

func (c *Config) publishTimeout() time.Duration {
	if c.Client.Timeout > 0 {
		return c.Client.Timeout
	}
	return 10 * time.Second
}

// Gate is the cluster ingress: it terminates subscriber connections
// speaking the ordinary framed protocol, routes each subscription to the
// ring owner of its canonical filter text (durable subscriptions by
// durable name), fans publishes out to every node owning at least one live
// filter, merges the nodes' delivery streams back per subscriber, and
// aggregates publish acks so a publish acks only once every owning node
// has. To the client a gate is indistinguishable from one big xpushserve.
type Gate struct {
	cfg  Config
	ring *Ring
	pool *Pool
	ln   net.Listener
	hln  net.Listener
	hsrv *http.Server
	reg  *obs.Registry

	mu     sync.Mutex
	conns  map[*gconn]struct{}
	down   map[string]bool // nodes proven down (OnDown fired, not yet back)
	closed bool
	wg     sync.WaitGroup

	pubs     map[string]*nodePub      // per-node publish plane (fixed keys)
	liveKeys map[string]*atomic.Int64 // per-node live subscription count

	// tracer head-samples fan-out publishes; nil when tracing is off.
	// active indexes in-flight gate publish traces by id so downstream
	// read loops can attach merge-write spans to them (best effort: a
	// delivery arriving after the publish settled records nothing).
	tracer    *trace.Recorder
	nodeDebug map[string]string // node addr -> introspection addr
	traceMu   sync.Mutex
	active    map[uint64]*trace.Ctx

	fanout   *obs.Histogram // nodes per publish fan-out
	subLat   obs.Histogram  // subscriber-visible SUBSCRIBE round-trip seconds
	unsubLat obs.Histogram  // subscriber-visible UNSUBSCRIBE round-trip seconds

	mConns          atomic.Int64
	mSubs           atomic.Int64
	mPublishes      *obs.Counter
	mPublishErrs    *obs.Counter
	mDeliveriesFwd  *obs.Counter
	mAcksFwd        *obs.Counter
	mAcksDropped    *obs.Counter
	mFailovers      *obs.Counter
	mFailoverResubs *obs.Counter
	mFailoverDrops  *obs.Counter
}

// New starts a gate: it builds the ring, starts the node pool, binds the
// subscriber listener (and the metrics listener, if configured), and begins
// accepting. Node connections come up asynchronously; /healthz reports
// degraded until every node is connected.
func New(cfg Config) (*Gate, error) {
	ring, err := NewRing(cfg.Nodes, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
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
		ring:      ring,
		ln:        ln,
		conns:     map[*gconn]struct{}{},
		down:      map[string]bool{},
		pubs:      map[string]*nodePub{},
		liveKeys:  map[string]*atomic.Int64{},
		tracer:    trace.New(cfg.TraceSample, cfg.TraceSlow),
		nodeDebug: map[string]string{},
		active:    map[uint64]*trace.Ctx{},
		fanout:    &obs.Histogram{},
		reg:       obs.NewRegistry(),
	}
	if len(cfg.NodeDebug) == len(cfg.Nodes) {
		for i, n := range cfg.Nodes {
			if cfg.NodeDebug[i] != "" {
				g.nodeDebug[n] = cfg.NodeDebug[i]
			}
		}
	}
	for _, n := range ring.Nodes() {
		g.liveKeys[n] = &atomic.Int64{}
		g.pubs[n] = &nodePub{node: n}
	}
	g.registerMetrics()
	g.pool = NewPool(ring.Nodes(), PoolOptions{
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

// Ring exposes the gate's ring (for tests and debug tooling).
func (g *Gate) Ring() *Ring { return g.ring }

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

// isDown reports whether node has been proven down. Nodes that have never
// connected are treated as routable: static membership is assumed healthy
// until a live connection to it fails, so the gate can route before the
// pool's first connect completes.
func (g *Gate) isDown(node string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down[node]
}

// onNodeUp runs on the pool's manage goroutine with a freshly probed
// connection: attach the publish pipeline and clear the down mark.
func (g *Gate) onNodeUp(node string, c *client.Client) {
	pipe, err := c.PublishPipelined(server.PublishWindow, nil)
	if err != nil {
		return // the connection is already dying; the pool will cycle it
	}
	g.pubs[node].pipe.Store(pipe)
	g.mu.Lock()
	delete(g.down, node)
	g.mu.Unlock()
	g.logf("cluster: node %s up", node)
}

// onNodeDown runs on the pool's manage goroutine after a node's connection
// died: mark it down, detach its pipeline so new publishes are refused, and
// replay its subscriptions onto the ring's next owners. The publishes still
// in flight on it settle with the connection's error when the pool closes
// the connection.
func (g *Gate) onNodeDown(node string, err error) {
	g.mu.Lock()
	g.down[node] = true
	closed := g.closed
	conns := make([]*gconn, 0, len(g.conns))
	for cn := range g.conns {
		conns = append(conns, cn)
	}
	g.mu.Unlock()
	g.pubs[node].pipe.Store(nil)
	if closed {
		return
	}
	g.mFailovers.Inc()
	g.logf("cluster: node %s down (%v); rerouting subscriptions", node, err)
	for _, cn := range conns {
		cn := cn
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			cn.rerouteNode(node, nil)
		}()
	}
}

// pubTargets returns the nodes a publish must reach: every node owning at
// least one live filter and not proven down.
func (g *Gate) pubTargets() []string {
	nodes := g.ring.Nodes()
	targets := make([]string, 0, len(nodes))
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, n := range nodes {
		if g.liveKeys[n].Load() > 0 && !g.down[n] {
			targets = append(targets, n)
		}
	}
	return targets
}

// beginPublishTrace starts the gate-hop trace for one fan-out publish.
// remoteID is the trace id carried on the incoming frame (0 = untraced):
// a publisher that already traced the document wins over local sampling,
// so the whole path shares one id.
func (g *Gate) beginPublishTrace(remoteID uint64) *trace.Ctx {
	if remoteID != 0 {
		return g.tracer.BeginRemote("gate_publish", remoteID, time.Now())
	}
	return g.tracer.Begin("gate_publish")
}

// trackTrace indexes an in-flight publish trace so delivery forwarding can
// attach merge-write spans; untrackTrace must run before the publish path's
// Finish so a concurrent traceRef never revives a completed trace.
func (g *Gate) trackTrace(tc *trace.Ctx) {
	g.traceMu.Lock()
	g.active[tc.ID] = tc
	g.traceMu.Unlock()
}

func (g *Gate) untrackTrace(tc *trace.Ctx) {
	g.traceMu.Lock()
	delete(g.active, tc.ID)
	g.traceMu.Unlock()
}

// traceRef resolves a forwarded delivery's trace id to the in-flight gate
// trace, taking a reference the caller must Finish. The map holds only
// traces whose publish path still owns a reference (untrack precedes
// Finish), so the Ref here can never race a final release.
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

// fanPublish publishes doc to every target node and aggregates: the total
// match count across nodes, and the first per-node error. It blocks until
// all targets ack or the publish timeout expires. remoteID is the trace id
// the subscriber's frame carried (0 = untraced); traced publishes record a
// per-node fan-out span (closed by that node's ack) plus an ack-aggregation
// wait span, and propagate the trace id on every node-bound frame.
func (g *Gate) fanPublish(doc []byte, remoteID uint64) (int, error) {
	targets := g.pubTargets()
	g.fanout.Observe(float64(len(targets)))
	g.mPublishes.Inc()
	tc := g.beginPublishTrace(remoteID)
	tid := remoteID
	if tc != nil {
		tid = tc.ID
		tc.SetAttr(trace.Root, "fanout_nodes", int64(len(targets)))
		g.trackTrace(tc)
		defer func() {
			g.untrackTrace(tc)
			tc.Finish()
		}()
	}
	if len(targets) == 0 {
		// No node owns a live filter: the document matches nothing.
		return 0, nil
	}
	agg := &pubAgg{remaining: len(targets), done: make(chan struct{})}
	for _, node := range targets {
		settle := agg.settle
		if tc != nil {
			// One span per node, on its own track, closed by the node's ack
			// (which arrives on that node connection's read loop).
			sp := tc.StartSpan("fanout "+node, trace.Root)
			tc.SetTrack(sp, tc.NextTrack())
			settle = func(r client.PublishResult) {
				tc.SetAttr(sp, "matches", int64(r.Matches))
				tc.EndSpan(sp)
				agg.settle(r)
			}
		}
		g.pubs[node].publish(doc, tid, settle)
	}
	wait := tc.StartSpan("ack_wait", trace.Root)
	t := time.NewTimer(g.cfg.publishTimeout())
	defer t.Stop()
	select {
	case <-agg.done:
		tc.EndSpan(wait)
	case <-t.C:
		tc.EndSpan(wait)
		g.mPublishErrs.Inc()
		return 0, fmt.Errorf("cluster: publish timed out after %v waiting for node acks", g.cfg.publishTimeout())
	}
	agg.mu.Lock()
	defer agg.mu.Unlock()
	if agg.firstErr != nil {
		g.mPublishErrs.Inc()
		return 0, agg.firstErr
	}
	return agg.matches, nil
}

// pubAgg aggregates one fan-out publish's per-node outcomes.
type pubAgg struct {
	mu        sync.Mutex
	remaining int
	matches   int
	firstErr  error
	done      chan struct{}
}

// settle records one node's outcome, which each node reports exactly once;
// callable from node read loops.
func (a *pubAgg) settle(r client.PublishResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.matches += r.Matches
	if r.Err != nil && a.firstErr == nil {
		a.firstErr = r.Err
	}
	a.remaining--
	if a.remaining == 0 {
		close(a.done)
	}
}

// nodePub is one node's publish plane: the pool connection's pipeline,
// which maps each node ack to its publish, and the node's ack latency.
type nodePub struct {
	node string
	hist obs.Histogram // ack latency, seconds
	pipe atomic.Pointer[client.Pipeline]
}

// publish submits doc on the node's pipeline. cb runs exactly once: with
// the node's ack, with the connection's error if the node goes away first,
// or with the refusal of a node that is not connected. traceID, when
// non-zero, rides the frame so the node's trace adopts the gate's id (the
// cross-hop merge key).
func (np *nodePub) publish(doc []byte, traceID uint64, cb func(client.PublishResult)) {
	pipe := np.pipe.Load()
	if pipe == nil {
		cb(client.PublishResult{Err: fmt.Errorf("cluster: node %s not connected", np.node)})
		return
	}
	start := time.Now()
	if _, err := pipe.Submit(doc, traceID, func(r client.PublishResult) {
		np.hist.Observe(time.Since(start).Seconds())
		cb(r)
	}); err != nil {
		cb(client.PublishResult{Err: err})
	}
}

// health backs /healthz: degraded while any node lacks a live connection.
// The body names every disconnected node, not just the first, so one curl
// tells an operator the full blast radius.
func (g *Gate) health() (bool, string) {
	var down []string
	for _, n := range g.ring.Nodes() {
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
	g.mPublishes = r.Counter("xpushgate_publishes_total", "Documents accepted for fan-out publish.")
	g.mPublishErrs = r.Counter("xpushgate_publish_errors_total", "Fan-out publishes that failed or timed out.")
	g.mDeliveriesFwd = r.Counter("xpushgate_deliveries_forwarded_total", "Delivery frames forwarded from nodes to subscribers.")
	g.mAcksFwd = r.Counter("xpushgate_acks_forwarded_total", "Durable acks forwarded to the owning node.")
	g.mAcksDropped = r.Counter("xpushgate_acks_dropped_total", "Durable acks dropped because their offset was outside the current node's forwarded window (stale after failover).")
	g.mFailovers = r.Counter("xpushgate_failovers_total", "Node-down events that triggered subscription rerouting.")
	g.mFailoverResubs = r.Counter("xpushgate_failover_resubscribes_total", "Subscriptions successfully replayed onto a surviving node.")
	g.mFailoverDrops = r.Counter("xpushgate_failover_dropped_subscriptions_total", "Subscriptions dropped because no surviving node could take them.")
	r.GaugeFunc("xpushgate_connections", "Open subscriber connections.", func() float64 { return float64(g.mConns.Load()) })
	r.GaugeFunc("xpushgate_subscriptions", "Live subscriptions across all subscriber connections.", func() float64 { return float64(g.mSubs.Load()) })
	r.GaugeVecFunc("xpushgate_node_up", "Per-node connectivity (1 = live pool connection).", func() []obs.Labeled {
		nodes := g.ring.Nodes()
		out := make([]obs.Labeled, 0, len(nodes))
		for _, n := range nodes {
			v := 0.0
			if g.pool.Up(n) {
				v = 1
			}
			out = append(out, obs.Labeled{Labels: fmt.Sprintf("node=%q", n), Value: v})
		}
		return out
	})
	r.GaugeVecFunc("xpushgate_node_live_keys", "Per-node live subscription count (publish fan-out skips zero).", func() []obs.Labeled {
		nodes := g.ring.Nodes()
		out := make([]obs.Labeled, 0, len(nodes))
		for _, n := range nodes {
			out = append(out, obs.Labeled{Labels: fmt.Sprintf("node=%q", n), Value: float64(g.liveKeys[n].Load())})
		}
		return out
	})
	r.HistogramFunc("xpushgate_publish_fanout_nodes", "Nodes per publish fan-out (bucket bounds are generic; read _sum/_count for the mean).", g.fanout.Snapshot)
	r.SummaryVecFunc("xpushgate_node_ack_latency_seconds", "Per-node publish ack latency.", nil, func() []obs.LabeledSnapshot {
		nodes := g.ring.Nodes()
		out := make([]obs.LabeledSnapshot, 0, len(nodes))
		for _, n := range nodes {
			out = append(out, obs.LabeledSnapshot{Labels: fmt.Sprintf("node=%q", n), Snap: g.pubs[n].hist.Snapshot()})
		}
		return out
	})
	r.SummaryFunc("xpushgate_subscribe_latency_seconds", "Subscriber-visible SUBSCRIBE round-trip latency (includes the node hop).", []float64{0.5, 0.9, 0.99}, g.subLat.Snapshot)
	r.SummaryFunc("xpushgate_unsubscribe_latency_seconds", "Subscriber-visible UNSUBSCRIBE round-trip latency (includes the node hop).", []float64{0.5, 0.9, 0.99}, g.unsubLat.Snapshot)
	if g.tracer.Enabled() {
		r.CounterFunc("xpushgate_traces_started_total", "Fan-out publish traces begun.", func() int64 {
			return g.tracer.Stats().Started
		})
		r.CounterFunc("xpushgate_traces_kept_total", "Fan-out publish traces retained in a ring.", func() int64 {
			return g.tracer.Stats().Kept
		})
	}
}

// debugCluster serves /debug/cluster: per-node health, live-key counts and
// gate totals as JSON.
func (g *Gate) debugCluster(w http.ResponseWriter, req *http.Request) {
	type nodeInfo struct {
		NodeStatus
		LiveKeys   int64       `json:"live_keys"`
		AckLatency obs.Summary `json:"ack_latency_seconds"`
	}
	snap := g.pool.Snapshot()
	nodes := make([]nodeInfo, 0, len(snap))
	for _, ns := range snap {
		nodes = append(nodes, nodeInfo{
			NodeStatus: ns,
			LiveKeys:   g.liveKeys[ns.Node].Load(),
			AckLatency: g.pubs[ns.Node].hist.Snapshot().Summary(),
		})
	}
	out := struct {
		Nodes         []nodeInfo `json:"nodes"`
		Connections   int64      `json:"connections"`
		Subscriptions int64      `json:"subscriptions"`
		Failovers     int64      `json:"failovers"`
		VirtualNodes  int        `json:"virtual_nodes"`
	}{nodes, g.mConns.Load(), g.mSubs.Load(), g.mFailovers.Value(), len(g.ring.points) / len(g.ring.nodes)}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// Close stops accepting, tears down every subscriber connection, the node
// pool and the metrics listener, and waits for all gate goroutines.
func (g *Gate) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	conns := make([]*gconn, 0, len(g.conns))
	for cn := range g.conns {
		conns = append(conns, cn)
	}
	g.mu.Unlock()
	g.ln.Close()
	for _, cn := range conns {
		cn.shutdown()
	}
	g.pool.Close()
	if g.hsrv != nil {
		g.hsrv.Close()
	}
	g.wg.Wait()
	return nil
}
