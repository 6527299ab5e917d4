package cluster

import (
	"fmt"
	"net"
	"sync"

	"repro/client"
	"repro/internal/trace"
	"repro/internal/xpath"
	"repro/server"
)

// gateSub is one subscription terminated at the gate: the gate-assigned id
// the subscriber sees, the canonical filter, the routing key it hashes by,
// and its current placement (node plus node-assigned id).
type gateSub struct {
	id       uint64 // gate-assigned, returned to the subscriber
	query    string // canonical filter text
	routeKey string // query, or durable name for durable subs
	durable  bool
	name     string // durable name ("" for ephemeral)
	node     string // current owning node
	nodeID   uint64 // node-assigned subscription id
}

// downstream is one per-(subscriber, node) connection carrying that
// subscriber's subscriptions on that node and the node's delivery stream
// back. ids maps node-assigned ids to gate ids; entries are kept after
// unsubscribe (tombstones) so deliveries already queued node-side still
// forward — the same late-delivery window a direct broker connection has.
type downstream struct {
	node string
	c    *client.Client

	mu  sync.Mutex
	ids map[uint64]uint64 // nodeID -> gateID, tombstones retained
}

func (ds *downstream) mapIDs(nodeIDs []uint64) []uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make([]uint64, 0, len(nodeIDs))
	for _, nid := range nodeIDs {
		if gid, ok := ds.ids[nid]; ok {
			out = append(out, gid)
		}
	}
	return out
}

// gconn is one subscriber connection terminated at the gate: the
// server.Session that speaks the protocol on it, and the routing state behind
// the session's handler methods (Subscribe ... Publish, Ack).
type gconn struct {
	g  *Gate
	ss *server.Session

	// opMu serializes routing operations — subscribe, unsubscribe,
	// reroute — which perform node round trips. The session's read loop holds
	// it for its own routing ops; reroute goroutines contend with it.
	opMu sync.Mutex

	mu     sync.Mutex
	subs   map[uint64]*gateSub
	nextID uint64
	dss    map[string]*downstream // node -> downstream
	closed bool

	// Durable state: a connection owns at most one durable name (mirroring
	// the broker). The ack floor [durLo, durHi] is the offset range actually
	// forwarded from the current owning node; acks outside it are stale
	// offsets from before a failover and are dropped rather than forwarded,
	// so they cannot fast-forward the new node's cursor.
	durMu   sync.Mutex
	durName string
	durNode string
	durSet  bool // true once a durable delivery has been forwarded
	durLo   uint64
	durHi   uint64
}

func newGconn(g *Gate, nc net.Conn) *gconn {
	cn := &gconn{
		g:    g,
		subs: map[uint64]*gateSub{},
		dss:  map[string]*downstream{},
	}
	maxDoc := g.cfg.Client.MaxDocBytes
	if maxDoc <= 0 {
		maxDoc = 64 << 20
	}
	cn.ss = server.NewSession(nc, cn, server.SessionOptions{
		MaxPayload: maxDoc,
		Window:     server.PublishWindow,
		SubLat:     &g.subLat,
		UnsubLat:   &g.unsubLat,
		ErrPrefix:  "xpushgate",
	})
	return cn
}

// StagePublish has nothing to keep in frame order: the whole publish is the
// fan-out.
func (cn *gconn) StagePublish([]byte) (server.PendingAppend, error) { return nil, nil }

func (cn *gconn) Publish(doc []byte, traceID uint64, _ server.PendingAppend) (int, error) {
	return cn.g.fanPublish(doc, traceID)
}

// Subscribe routes an ephemeral subscription to the ring owner of its
// canonical filter text. Owners whose downstream dial fails are skipped
// (clockwise walk), so a dead-but-not-yet-proven node does not fail the
// subscribe.
func (cn *gconn) Subscribe(query string) (uint64, error) {
	canon, err := xpath.Canonicalize(query)
	if err != nil {
		return 0, fmt.Errorf("xpushgate: %w", err)
	}
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	node, ds, err := cn.placeLocked(canon)
	if err != nil {
		return 0, err
	}
	nodeID, err := ds.c.Subscribe(canon)
	if err != nil {
		return 0, err
	}
	return cn.registerLocked(&gateSub{query: canon, routeKey: canon, node: node, nodeID: nodeID}, ds), nil
}

// SubscribeDurable routes a durable subscription by its name, so the
// name's replay cursor stays on one node across the subscriber's
// reconnects (while membership is stable).
func (cn *gconn) SubscribeDurable(name, query string) (id, resume uint64, err error) {
	canon, err := xpath.Canonicalize(query)
	if err != nil {
		return 0, 0, fmt.Errorf("xpushgate: %w", err)
	}
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	cn.durMu.Lock()
	have, haveNode := cn.durName, cn.durNode
	cn.durMu.Unlock()
	if have != "" && have != name {
		// Mirror the broker: one durable name (and replay cursor) per
		// connection, but any number of filters under it.
		return 0, 0, fmt.Errorf("xpushgate: connection already owns durable name %q", have)
	}
	var node string
	var ds *downstream
	if have == name {
		// Additional filter under the claimed name: stay on the name's
		// node so all its deliveries share one offset sequence.
		node = haveNode
		ds, err = cn.downstreamLocked(node)
		if err != nil {
			node, ds = "", nil
		}
	}
	if ds == nil {
		node, ds, err = cn.placeLocked(durableRouteKey(name))
		if err != nil {
			return 0, 0, err
		}
	}
	nodeID, resume, err := ds.c.SubscribeDurable(name, canon)
	if err != nil {
		return 0, 0, err
	}
	gid := cn.registerLocked(&gateSub{query: canon, routeKey: durableRouteKey(name), durable: true, name: name, node: node, nodeID: nodeID}, ds)
	cn.durMu.Lock()
	if cn.durName != name || cn.durNode != node {
		// The name is newly claimed or moved nodes: the delivered-offset
		// window restarts with the new offset sequence.
		cn.durSet = false
	}
	cn.durName, cn.durNode = name, node
	cn.durMu.Unlock()
	return gid, resume, nil
}

// durableRouteKey namespaces durable names away from filter text on the
// ring, so a name that happens to equal a canonical filter does not
// co-locate with it by accident.
func durableRouteKey(name string) string { return "durable\x00" + name }

// placeLocked picks the routing key's owner (skipping proven-down nodes
// and nodes whose downstream dial fails) and returns its downstream.
// Caller holds opMu.
func (cn *gconn) placeLocked(routeKey string) (string, *downstream, error) {
	g := cn.g
	tried := map[string]bool{}
	for {
		node, ok := g.ring.OwnerAvoid(routeKey, func(n string) bool { return tried[n] || g.isDown(n) })
		if !ok {
			return "", nil, fmt.Errorf("xpushgate: no cluster node available")
		}
		ds, err := cn.downstreamLocked(node)
		if err != nil {
			tried[node] = true
			g.pool.Probe(node) // accelerate the pool's verdict on this node
			continue
		}
		return node, ds, nil
	}
}

// downstreamLocked returns (dialing if necessary) this subscriber's
// connection to node. Caller holds opMu.
func (cn *gconn) downstreamLocked(node string) (*downstream, error) {
	cn.mu.Lock()
	ds, ok := cn.dss[node]
	closed := cn.closed
	cn.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("xpushgate: connection closing")
	}
	if ok {
		return ds, nil
	}
	ds = &downstream{node: node, ids: map[uint64]uint64{}}
	opt := cn.g.cfg.Client
	opt.OnDeliver = func(d client.Delivery) { cn.forwardDeliver(ds, d) }
	c, err := client.Dial(node, opt)
	if err != nil {
		return nil, err
	}
	ds.c = c
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("xpushgate: connection closing")
	}
	cn.dss[node] = ds
	cn.mu.Unlock()
	// Watch for the downstream dying out from under us: reroute this
	// subscriber's subscriptions (possibly back onto the same node if only
	// the connection, not the node, failed).
	go func() {
		<-c.Done()
		cn.mu.Lock()
		current := cn.dss[node] == ds
		closed := cn.closed
		cn.mu.Unlock()
		if closed || !current {
			return
		}
		cn.g.logf("cluster: downstream to %s died: %v", node, c.Err())
		cn.g.pool.Probe(node)
		cn.rerouteNode(node, ds)
	}()
	return ds, nil
}

// registerLocked assigns a gate id, installs the sub in both maps and
// bumps the node's live-key count. Caller holds opMu.
func (cn *gconn) registerLocked(sub *gateSub, ds *downstream) uint64 {
	cn.mu.Lock()
	cn.nextID++
	sub.id = cn.nextID
	cn.subs[sub.id] = sub
	cn.mu.Unlock()
	ds.mu.Lock()
	ds.ids[sub.nodeID] = sub.id
	ds.mu.Unlock()
	cn.g.liveKeys[sub.node].Add(1)
	cn.g.mSubs.Add(1)
	return sub.id
}

// Unsubscribe removes a gate subscription, forwarding the unsubscribe to
// its node (tolerating a dead downstream — the node-side subscription died
// with the connection).
func (cn *gconn) Unsubscribe(id uint64) error {
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	cn.mu.Lock()
	sub, ok := cn.subs[id]
	if ok {
		delete(cn.subs, id)
	}
	ds := cn.dss[sub0(sub)]
	cn.mu.Unlock()
	if !ok {
		return fmt.Errorf("xpushgate: unknown subscription id %d", id)
	}
	cn.g.liveKeys[sub.node].Add(-1)
	cn.g.mSubs.Add(-1)
	if ds != nil {
		// Keep ds.ids[sub.nodeID] as a tombstone: deliveries already queued
		// node-side still forward, matching direct-broker semantics.
		ds.c.Unsubscribe(sub.nodeID)
	}
	// The durable name stays claimed (and its ack window open) until the
	// connection goes away, mirroring the broker: cursor acks persist even
	// after the name's filters are unsubscribed.
	return nil
}

// sub0 is a nil-safe sub.node (the map lookup above runs before the ok
// check to stay under one lock hold).
func sub0(sub *gateSub) string {
	if sub == nil {
		return ""
	}
	return sub.node
}

// forwardDeliver runs on a downstream connection's read loop: translate
// node ids to gate ids and forward the delivery frame to the subscriber.
// When the delivery carries a trace id with a still-in-flight gate publish
// trace, the downstream merge write becomes a span on it (best effort: a
// delivery arriving after the publish settled records nothing).
func (cn *gconn) forwardDeliver(ds *downstream, d client.Delivery) {
	gids := ds.mapIDs(d.Filters)
	if len(gids) == 0 {
		return
	}
	tc := cn.g.traceRef(d.TraceID)
	sp := tc.StartSpan("merge_write "+ds.node, trace.Root)
	tc.SetTrack(sp, tc.NextTrack())
	tc.SetAttr(sp, "filters", int64(len(gids)))
	typ := server.FrameDeliver
	if d.Durable {
		cn.noteDurableDelivery(ds.node, d.Offset)
		typ = server.FrameDeliverAt
	}
	if cn.ss.WriteDeliver(typ, d.Offset, gids, d.Doc, d.TraceID, true) == nil {
		cn.g.mDeliveriesFwd.Inc()
	}
	tc.EndSpan(sp)
	tc.Finish()
}

// noteDurableDelivery widens the ack floor window with an offset actually
// forwarded from the current durable node.
func (cn *gconn) noteDurableDelivery(node string, off uint64) {
	cn.durMu.Lock()
	defer cn.durMu.Unlock()
	if node != cn.durNode {
		return // late delivery from a node we failed away from
	}
	if !cn.durSet {
		cn.durSet, cn.durLo, cn.durHi = true, off, off
		return
	}
	if off < cn.durLo {
		cn.durLo = off
	}
	if off > cn.durHi {
		cn.durHi = off
	}
}

// Ack forwards a durable ack to the owning node iff its offset is
// inside the window forwarded from that node; stale offsets (from before a
// failover, in the old node's offset space) are dropped so they cannot
// fast-forward the new node's cursor.
func (cn *gconn) Ack(off uint64) {
	cn.durMu.Lock()
	node := cn.durNode
	ok := cn.durSet && off >= cn.durLo && off <= cn.durHi
	cn.durMu.Unlock()
	if !ok || node == "" {
		cn.g.mAcksDropped.Inc()
		return
	}
	cn.mu.Lock()
	ds := cn.dss[node]
	cn.mu.Unlock()
	if ds == nil {
		cn.g.mAcksDropped.Inc()
		return
	}
	if ds.c.Ack(off) == nil {
		cn.g.mAcksFwd.Inc()
	}
}

// rerouteNode replays this subscriber's subscriptions on node onto the
// ring's next owners (the normal subscribe path on the surviving node, so
// the COW engine swap warms the filters in). When expect is non-nil the
// reroute only applies if that exact downstream is still current — a stale
// watcher must not tear down a healthy replacement connection.
func (cn *gconn) rerouteNode(node string, expect *downstream) {
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return
	}
	ds := cn.dss[node]
	if expect != nil && ds != expect {
		cn.mu.Unlock()
		return
	}
	delete(cn.dss, node)
	var moving []*gateSub
	for _, sub := range cn.subs {
		if sub.node == node {
			moving = append(moving, sub)
		}
	}
	cn.mu.Unlock()
	if ds != nil {
		ds.c.Close()
	}
	if len(moving) == 0 {
		return
	}
	for _, sub := range moving {
		cn.g.liveKeys[node].Add(-1)
		newNode, newDS, err := cn.placeLocked(sub.routeKey)
		if err != nil {
			cn.g.logf("cluster: replacing subscription %d after %s died: %v", sub.id, node, err)
			cn.dropSubLocked(sub)
			continue
		}
		var nodeID uint64
		if sub.durable {
			nodeID, _, err = newDS.c.SubscribeDurable(sub.name, sub.query)
		} else {
			nodeID, err = newDS.c.Subscribe(sub.query)
		}
		if err != nil {
			cn.dropSubLocked(sub)
			continue
		}
		cn.mu.Lock()
		sub.node, sub.nodeID = newNode, nodeID
		cn.mu.Unlock()
		newDS.mu.Lock()
		newDS.ids[nodeID] = sub.id
		newDS.mu.Unlock()
		cn.g.liveKeys[newNode].Add(1)
		if sub.durable {
			// The new node replays from its own cursor; reset the ack floor
			// so stale old-node offsets are dropped until the new node's
			// deliveries establish a fresh window.
			cn.durMu.Lock()
			if cn.durName == sub.name {
				cn.durNode, cn.durSet = newNode, false
			}
			cn.durMu.Unlock()
		}
		cn.g.mFailoverResubs.Inc()
	}
}

// dropSubLocked abandons a subscription that could not be replayed onto
// any surviving node. Caller holds opMu; the node's live-key count has
// already been decremented.
func (cn *gconn) dropSubLocked(sub *gateSub) {
	cn.mu.Lock()
	delete(cn.subs, sub.id)
	cn.mu.Unlock()
	cn.g.mSubs.Add(-1)
	cn.g.mFailoverDrops.Inc()
	cn.g.logf("cluster: dropped subscription %d (%s): no surviving node", sub.id, sub.query)
}

// shutdown force-closes the subscriber socket; teardown, which follows the
// session's Serve, does the rest.
func (cn *gconn) shutdown() { cn.ss.Close() }

// teardown runs when the session ends: close the subscriber socket and
// every downstream (node-side teardown unsubscribes server-side), release
// live-key counts, and stop the async machinery. It takes opMu so an
// in-flight reroute finishes its accounting before the final snapshot —
// otherwise both paths would decrement the same subscription's live-key.
func (cn *gconn) teardown() {
	cn.ss.Close() // unblock any in-flight write before waiting on opMu
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	cn.mu.Lock()
	cn.closed = true
	dss := make([]*downstream, 0, len(cn.dss))
	for _, ds := range cn.dss {
		dss = append(dss, ds)
	}
	cn.dss = map[string]*downstream{}
	subs := cn.subs
	cn.subs = map[uint64]*gateSub{}
	cn.mu.Unlock()
	for _, ds := range dss {
		ds.c.Close()
	}
	for _, sub := range subs {
		cn.g.liveKeys[sub.node].Add(-1)
		cn.g.mSubs.Add(-1)
	}
	cn.ss.StopAsync()
}
