package cluster

import (
	"cmp"
	"fmt"
	"net"
	"slices"
	"sync"

	"repro/client"
	"repro/internal/trace"
	"repro/internal/xpath"
	"repro/server"
)

// gateSub is one subscription terminated at the gate.
type gateSub struct {
	query   string // canonical filter text
	durable bool   // held under the connection's durable name
}

// downstream is one subscriber's connection to one node, carrying that
// subscriber's subscriptions on the node and the node's delivery stream
// back. ids maps node-assigned ids to gate ids; entries are kept after
// unsubscribe (tombstones) so deliveries already queued node-side still
// forward — the same late-delivery window a direct broker connection has.
type downstream struct {
	idx int // the node's index in the gate's nodes: its offsets' node byte
	c   *client.Client

	// mu is held from routing a delivery through writing it, so the
	// node's deliveries reach the subscriber in the order they came.
	mu          sync.Mutex
	ids         map[uint64]uint64 // nodeID -> gateID, tombstones retained
	subscribing bool              // a subscribe's reply is awaited
	held        []client.Delivery // deliveries naming the id that reply brings

	placed map[uint64]uint64 // gateID -> nodeID of live subscriptions; under the gconn's opMu
}

// route translates a delivery's node ids to gate ids. A delivery can
// arrive ahead of the reply to the subscribe that names its id: the node
// registers the filter, and starts a durable replay, before it replies. So
// while a subscribe is in flight every delivery is held, in order (copied:
// the read loop reuses its memory), until the reply's id is recorded. The
// caller holds ds.mu.
func (ds *downstream) route(d client.Delivery) (gids []uint64) {
	if ds.subscribing {
		d.Filters, d.Doc = slices.Clone(d.Filters), slices.Clone(d.Doc)
		ds.held = append(ds.held, d)
		return nil
	}
	for _, nid := range d.Filters {
		if gid, ok := ds.ids[nid]; ok {
			gids = append(gids, gid)
		}
	}
	return gids
}

// subscribe runs one subscribe round trip on the downstream, records the
// id its reply brings, and forwards the deliveries held meanwhile. A
// failed subscribe closes the downstream, once ds.mu is released: Close
// waits for the read loop, which takes it.
func (ds *downstream) subscribe(cn *gconn, id uint64, sub gateSub) (resume uint64, err error) {
	ds.mu.Lock()
	ds.subscribing = true
	ds.mu.Unlock()
	var nid uint64
	if sub.durable {
		nid, resume, err = ds.c.SubscribeDurable(cn.durName, sub.query)
	} else {
		nid, err = ds.c.Subscribe(sub.query)
	}
	ds.mu.Lock()
	if err == nil {
		ds.ids[nid] = id
		ds.placed[id] = nid
	}
	ds.subscribing = false
	for _, d := range ds.held {
		if gids := ds.route(d); len(gids) > 0 {
			cn.writeDeliver(ds, d, gids)
		}
	}
	ds.held = nil
	ds.mu.Unlock()
	if err != nil {
		ds.c.Close() // a timed-out request may still register the filter there
	}
	return resume, err
}

// gconn is one subscriber connection terminated at the gate: the
// server.Session that speaks the protocol on it, and the routing state behind
// the session's handler methods (Subscribe ... Publish, Ack).
type gconn struct {
	g  *Gate
	ss *server.Session

	// opMu serializes the operations that make node round trips —
	// subscribe, unsubscribe, re-subscribe — and guards the fields below it
	// and every downstream's placed map.
	opMu    sync.Mutex
	subs    map[uint64]gateSub // gate id -> subscription
	nextID  uint64
	durName string // the connection's durable name: one, as on a broker

	mu     sync.Mutex
	dss    []*downstream // by node index; nil while not linked
	closed bool          // set under opMu as well
}

func newGconn(g *Gate, nc net.Conn) *gconn {
	cn := &gconn{
		g:    g,
		subs: map[uint64]gateSub{},
		dss:  make([]*downstream, len(g.nodes)),
	}
	cn.ss = server.NewSession(nc, cn, server.SessionOptions{
		MaxPayload: cmp.Or(max(g.cfg.Client.MaxDocBytes, 0), 64<<20),
		Window:     server.PublishWindow,
		SubLat:     &g.subLat,
		UnsubLat:   &g.unsubLat,
		ErrPrefix:  "xpushgate",
	})
	return cn
}

// StagePublish has nothing to keep in frame order: the whole publish is the
// node's.
func (cn *gconn) StagePublish([]byte) (server.PendingAppend, error) { return nil, nil }

func (cn *gconn) Publish(doc []byte, traceID uint64, _ server.PendingAppend) (int, error) {
	return cn.g.publish(doc, traceID)
}

// Subscribe subscribes the canonical filter on every node.
func (cn *gconn) Subscribe(query string) (uint64, error) {
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	id, _, err := cn.subscribeLocked(gateSub{query: query})
	return id, err
}

// SubscribeDurable subscribes the filter under the durable name on every
// node. Each node keeps its own cursor for the name over its own log and
// replays its own unacked documents; resume is the first node's replay
// start, with that node's index in the top byte like every offset the gate
// forwards.
func (cn *gconn) SubscribeDurable(name, query string) (id, resume uint64, err error) {
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	if cn.durName != "" && cn.durName != name {
		// Mirror the broker: one durable name (and replay cursor) per
		// connection, but any number of filters under it.
		return 0, 0, fmt.Errorf("xpushgate: connection already owns durable name %q", cn.durName)
	}
	prev := cn.durName
	cn.durName = name
	if id, resume, err = cn.subscribeLocked(gateSub{query: query, durable: true}); err != nil {
		cn.durName = prev
	}
	return id, resume, err
}

// subscribeLocked places a new subscription on every node not proven down,
// all at once, and registers it. It fails only if no node took it. A node
// that is up but failed to take it is marked stale, so it gets no publish
// until the subscription is there; a node that is down gets it when it
// comes back. Caller holds opMu.
func (cn *gconn) subscribeLocked(sub gateSub) (id, resume uint64, err error) {
	if sub.query, err = xpath.Canonicalize(sub.query); err != nil {
		return 0, 0, fmt.Errorf("xpushgate: %w", err)
	}
	id = cn.nextID + 1
	errs := make([]error, len(cn.g.pubs))
	resumes := make([]uint64, len(cn.g.pubs))
	parallel(len(cn.g.pubs), func(i int) {
		if errs[i] = errNodeDown; !cn.g.pubs[i].down.Load() {
			resumes[i], errs[i] = cn.placeLocked(i, id, sub)
		}
	})
	first := slices.Index(errs, nil)
	for i, e := range errs {
		if e == nil || e == errNodeDown {
			continue
		}
		if err = e; first >= 0 {
			cn.g.markStale(i)
		}
	}
	if first < 0 {
		return 0, 0, cmp.Or(err, errNodeDown)
	}
	cn.nextID = id
	cn.subs[id] = sub
	cn.g.mSubs.Add(1)
	return id, uint64(first)<<nodeShift | resumes[first], nil
}

// placeLocked subscribes sub on node i under gate id id, dialing the
// subscriber's downstream to the node if it has none. It returns the
// node's replay start for a durable subscription. Caller holds opMu, or
// runs on behalf of its holder for one node at a time.
func (cn *gconn) placeLocked(i int, id uint64, sub gateSub) (uint64, error) {
	cn.mu.Lock()
	ds := cn.dss[i]
	cn.mu.Unlock()
	if ds == nil {
		ds = &downstream{idx: i, ids: map[uint64]uint64{}, placed: map[uint64]uint64{}}
		opt := cn.g.cfg.Client
		opt.OnDeliver = func(d client.Delivery) { cn.forwardDeliver(ds, d) }
		c, err := client.Dial(cn.g.nodes[i], opt)
		if err != nil {
			cn.g.pool.Probe(cn.g.nodes[i]) // accelerate the pool's verdict on this node
			return 0, err
		}
		ds.c = c
		cn.mu.Lock()
		closed := cn.closed
		if !closed {
			cn.dss[i] = ds
		}
		cn.mu.Unlock()
		if closed {
			c.Close()
			return 0, fmt.Errorf("xpushgate: connection closing")
		}
		cn.g.wg.Add(1)
		go cn.watch(ds)
	}
	return ds.subscribe(cn, id, sub)
}

// watch waits for a downstream to die. Its subscriptions died with it on
// the node, so unless the subscriber is going away the node is marked
// stale: it takes no publish until they are placed there again.
func (cn *gconn) watch(ds *downstream) {
	defer cn.g.wg.Done()
	<-ds.c.Done()
	cn.mu.Lock()
	current := !cn.closed && cn.dss[ds.idx] == ds
	if current {
		cn.dss[ds.idx] = nil
	}
	cn.mu.Unlock()
	if current {
		cn.g.logf("cluster: downstream to %s died: %v", cn.g.nodes[ds.idx], ds.c.Err())
		cn.g.pool.Probe(cn.g.nodes[ds.idx])
		cn.g.markStale(ds.idx)
	}
}

// sync places on node i, in subscribe order, every subscription of this
// connection that is not there.
func (cn *gconn) sync(i int) error {
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	if cn.g.pubs[i].down.Load() || cn.closed {
		return nil // a down node is marked stale again when it comes back
	}
	ids := make([]uint64, 0, len(cn.subs))
	for id := range cn.subs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		cn.mu.Lock()
		ds := cn.dss[i]
		cn.mu.Unlock()
		if ds != nil {
			if _, ok := ds.placed[id]; ok {
				continue
			}
		}
		if _, err := cn.placeLocked(i, id, cn.subs[id]); err != nil {
			return err
		}
		cn.g.mResubscribes.Inc()
	}
	return nil
}

// Unsubscribe removes a gate subscription from every node that holds it
// (tolerating a dead downstream — the node-side subscription died with the
// connection).
func (cn *gconn) Unsubscribe(id uint64) error {
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	if _, ok := cn.subs[id]; !ok {
		return fmt.Errorf("xpushgate: unknown subscription id %d", id)
	}
	delete(cn.subs, id)
	cn.g.mSubs.Add(-1)
	cn.mu.Lock()
	dss := slices.Clone(cn.dss)
	cn.mu.Unlock()
	parallel(len(dss), func(i int) {
		if ds := dss[i]; ds != nil {
			// Keep ds.ids[nid] as a tombstone: deliveries already queued
			// node-side still forward, matching direct-broker semantics.
			if nid, ok := ds.placed[id]; ok {
				delete(ds.placed, id)
				ds.c.Unsubscribe(nid)
			}
		}
	})
	// The durable name stays claimed until the connection goes away,
	// mirroring the broker: cursor acks persist even after the name's
	// filters are unsubscribed.
	return nil
}

// forwardDeliver runs on a downstream connection's read loop: translate
// node ids to gate ids and forward the delivery frame to the subscriber. A
// durable delivery's offset gains the node's index in its top byte, which
// routes the subscriber's ack back. When the delivery carries a trace id
// with a still-in-flight gate publish trace, the downstream merge write
// becomes a span on it (best effort: a delivery arriving after the publish
// settled records nothing).
func (cn *gconn) forwardDeliver(ds *downstream, d client.Delivery) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if gids := ds.route(d); len(gids) > 0 {
		cn.writeDeliver(ds, d, gids)
	}
}

// writeDeliver writes one routed delivery to the subscriber. The caller
// holds ds.mu.
func (cn *gconn) writeDeliver(ds *downstream, d client.Delivery, gids []uint64) {
	tc := cn.g.traceRef(d.TraceID)
	sp := tc.StartSpan("merge_write "+cn.g.nodes[ds.idx], trace.Root)
	tc.SetTrack(sp, tc.NextTrack())
	tc.SetAttr(sp, "filters", int64(len(gids)))
	typ, off := server.FrameDeliver, d.Offset
	if d.Durable {
		typ, off = server.FrameDeliverAt, uint64(ds.idx)<<nodeShift|d.Offset
	}
	if cn.ss.WriteDeliver(typ, off, gids, d.Doc, d.TraceID, true) == nil {
		cn.g.mDeliveriesFwd.Inc()
	}
	tc.EndSpan(sp)
	tc.Finish()
}

// Ack forwards a durable ack to the node its offset's top byte names, with
// that node's own offset in the low bits. Each node's cursor is cumulative
// over its own log, so an ack moves only the cursor of the node whose
// document it acknowledges. An offset naming no node, or a node this
// connection has no link to, is dropped and counted.
func (cn *gconn) Ack(off uint64) {
	i := off >> nodeShift
	var ds *downstream
	cn.mu.Lock()
	if i < uint64(len(cn.dss)) {
		ds = cn.dss[i]
	}
	cn.mu.Unlock()
	if ds == nil || ds.c.Ack(off&(1<<nodeShift-1)) != nil {
		cn.g.mAcksDropped.Inc()
		return
	}
	cn.g.mAcksFwd.Inc()
}

// teardown runs when the session ends: close the subscriber socket and
// every downstream (node-side teardown unsubscribes server-side), release
// the subscription count, and stop the async machinery. It takes opMu so
// an in-flight re-subscribe finishes before the final accounting.
func (cn *gconn) teardown() {
	cn.ss.Close() // unblock any in-flight write before waiting on opMu
	cn.opMu.Lock()
	defer cn.opMu.Unlock()
	cn.mu.Lock()
	cn.closed = true
	dss := slices.Clone(cn.dss)
	cn.mu.Unlock()
	for _, ds := range dss {
		if ds != nil {
			ds.c.Close()
		}
	}
	cn.g.mSubs.Add(-int64(len(cn.subs)))
	clear(cn.subs)
	cn.ss.StopAsync()
}
