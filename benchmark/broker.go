package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/server"
	"repro/wal"
)

// durableName is the one persistent subscriber name of broker-durable.
const durableName = "bench"

// roundTimeout bounds the wait for a round's last completion; what is still
// outstanding then is counted missing.
const roundTimeout = 20 * time.Second

// broker is one in-process broker with its two connections: the publisher
// and the single subscriber that carries every subscription. It implements
// the closed-loop and open-loop publish rounds, the churn script and the
// delivery oracle for the three broker workloads.
type broker struct {
	p *plan
	o *oracle
	t *tally

	srv  *server.Server
	gate *cluster.Gate
	addr string // what the two connections dial: the broker, or the gate
	log  *wal.Log
	dir  string
	pub  *client.Client
	sub  *client.Client
	// pipe is the windowed publisher; nil on the synchronous churn script.
	// sync makes a pipelined workload publish synchronously for a round
	// (the gate rung's round-trip comparison).
	pipe *client.Pipeline
	sync bool

	// published counts documents sent so far; it is also the last sequence
	// tag handed out (and, on pipelined workloads, the pipeline's own seq).
	published uint64
	churnPos  int
	// slots is the live subscription id of each subscriber slot.
	slots []uint64
	// Control-plane round trips, ms, in script order.
	subscribeMS, unsubscribeMS []float64

	// mu guards everything below: the read loops of both connections check
	// deliveries and acks against it while the publisher advances it.
	mu sync.Mutex
	// subFilter maps a subscription id to its pool filter; subFrom/subUntil
	// bound the sequence tags it was live for (ids are never reused).
	subFilter         []int32
	subFrom, subUntil []uint64
	// nsubs counts live subscriptions per pool filter.
	nsubs []int32
	rd    round
	// replaying relaxes the per-delivery count check while a reconnecting
	// durable subscriber is still re-registering its filters.
	replaying bool
	delivered uint64 // durable deliveries seen, for the ack cadence
}

// round is the state of the publish round in flight.
type round struct {
	base uint64 // sequence tag of the round's first document, minus one
	docs []uint16
	// Per document: when it was due, when it was sent, when the ack and
	// the completion (delivery, or ack when nothing matched) arrived; all
	// on the harness clock, 0 = not yet.
	intended, sent, acked, done []time.Duration
	wantSubs, wantAck           []int32
	delivered                   []bool
	// remaining counts acks and deliveries still owed for documents sent so
	// far; the round is over when it is zero and publishing has stopped.
	remaining  int
	publishing bool
	finished   chan struct{}
	// timed rounds stamp every send, ack and completion; untimed ones
	// (closed-loop throughput) skip the clock reads.
	timed bool
}

// brokerOpts are the set-up choices that are not the workload's.
type brokerOpts struct {
	// dir is where a durable broker keeps its log; removed on close.
	dir string
	// debug turns the broker's introspection listener on (traced runs read
	// /debug/machine for layer counts).
	debug bool
	// gate puts a one-node cluster gate between the connections and the
	// broker (the gate-hop rung).
	gate bool
}

// bootBroker performs the whole set-up: server (and WAL), both connections,
// every subscription, and cold passes over the pool until the lazy machine
// stops growing. dir is where a durable broker keeps its log.
func bootBroker(p *plan, o *oracle, t *tally, opt brokerOpts) (*broker, error) {
	w, dir := p.W, opt.dir
	b := &broker{p: p, o: o, t: t, dir: dir, nsubs: make([]int32, len(p.Filters))}
	cfg := server.Config{Policy: server.Block}
	if w.Preload {
		cfg.InitialQueries = p.Filters
	}
	if opt.debug {
		cfg.DebugAddr = "127.0.0.1:0"
	}
	if w.Durable {
		l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncInterval})
		if err != nil {
			return nil, err
		}
		b.log = l
		cur, err := wal.OpenCursorStore(filepath.Join(dir, "cursors"))
		if err != nil {
			b.close()
			return nil, err
		}
		cfg.WAL, cfg.Cursors = server.WrapWAL(l), cur
	}
	srv, err := server.New(cfg)
	if err != nil {
		b.close()
		return nil, err
	}
	b.srv, b.addr = srv, srv.Addr()
	if opt.gate {
		b.gate, err = cluster.New(cluster.Config{
			Nodes:   []string{srv.Addr()},
			Client:  client.Options{Timeout: 10 * time.Second},
			Backoff: client.Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		})
		if err != nil {
			b.close()
			return nil, err
		}
		b.addr = b.gate.Addr()
		if err := waitGate(b.addr); err != nil {
			b.close()
			return nil, err
		}
	}
	if b.pub, err = client.Dial(b.addr, client.Options{OnDeliver: b.strayDelivery}); err != nil {
		b.close()
		return nil, err
	}
	if err := b.connectSubscriber(); err != nil {
		b.close()
		return nil, err
	}
	if w.ChurnEvery == 0 {
		if b.pipe, err = b.pub.PublishPipelined(window, b.onAck); err != nil {
			b.close()
			return nil, err
		}
	}
	if err := coldPasses(p, b, func() int { return srv.Stats().States }); err != nil {
		b.close()
		return nil, err
	}
	// The cold passes' churn round trips are set-up, not samples.
	b.subscribeMS, b.unsubscribeMS = nil, nil
	return b, nil
}

// waitGate returns once the gate routes a subscription, i.e. its node
// connection is up (it comes up asynchronously after cluster.New).
func waitGate(addr string) error {
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		id, err := c.Subscribe("/gate-ready")
		if err == nil {
			return c.Unsubscribe(id)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate never reached its node: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// connectSubscriber dials the subscriber connection and registers every
// slot's subscription on it.
func (b *broker) connectSubscriber() error {
	sub, err := client.Dial(b.addr, client.Options{OnDeliver: b.onDeliver})
	if err != nil {
		return err
	}
	b.sub = sub
	b.slots = make([]uint64, len(b.p.Subs)+1) // +1: the subscribe phase's spare slot
	for slot, f := range b.p.Subs {
		if _, err := b.subscribe(slot, f); err != nil {
			return err
		}
	}
	return nil
}

// subscribe registers pool filter f for slot and returns the round trip.
func (b *broker) subscribe(slot, f int) (time.Duration, error) {
	b.t.attempted.Add(1)
	var id uint64
	var err error
	t0 := clock()
	if b.p.W.Durable {
		id, _, err = b.sub.SubscribeDurable(durableName, b.p.Filters[f])
	} else {
		id, err = b.sub.Subscribe(b.p.Filters[f])
	}
	rtt := clock() - t0
	if err != nil {
		b.t.failf("subscribe %q: %v", b.p.Filters[f], err)
		return rtt, err
	}
	b.mu.Lock()
	for uint64(len(b.subFilter)) <= id {
		b.subFilter = append(b.subFilter, -1)
		b.subFrom = append(b.subFrom, 0)
		b.subUntil = append(b.subUntil, 0)
	}
	b.subFilter[id] = int32(f)
	b.subFrom[id] = b.published + 1
	b.subUntil[id] = ^uint64(0)
	b.nsubs[f]++
	b.mu.Unlock()
	b.slots[slot] = id
	return rtt, nil
}

// unsubscribe drops slot's subscription and returns the round trip.
func (b *broker) unsubscribe(slot int) (time.Duration, error) {
	b.t.attempted.Add(1)
	id := b.slots[slot]
	t0 := clock()
	err := b.sub.Unsubscribe(id)
	rtt := clock() - t0
	if err != nil {
		b.t.failf("unsubscribe %d: %v", id, err)
		return rtt, err
	}
	b.mu.Lock()
	b.subUntil[id] = b.published + 1
	b.nsubs[b.subFilter[id]]--
	b.mu.Unlock()
	return rtt, nil
}

// churn replaces one subscription per the script and records both round
// trips.
func (b *broker) churn() error {
	op := b.p.Churn[b.churnPos%len(b.p.Churn)]
	b.churnPos++
	u, err := b.unsubscribe(op.Slot)
	if err != nil {
		return err
	}
	s, err := b.subscribe(op.Slot, op.Filter)
	if err != nil {
		return err
	}
	b.unsubscribeMS = append(b.unsubscribeMS, ms(u))
	b.subscribeMS = append(b.subscribeMS, ms(s))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// expect computes, from the oracle and the live subscription counts, how
// many subscriptions a publish of pool document d must be delivered to and
// what its ack must report (a preloaded filter nobody holds still counts
// once in the ack — the broker's publish contract). Callers hold mu.
func (b *broker) expect(d uint16) (subs, ack int32) {
	for _, f := range b.o.match[d] {
		n := b.nsubs[f]
		subs += n
		if n == 0 && b.p.W.Preload {
			n = 1
		}
		ack += n
	}
	return subs, ack
}

// run publishes one round — docs in order, closed loop when pc is nil, open
// loop on pc's schedule otherwise — and returns once every document has
// completed. The finished round stays in b.rd for the caller to read.
func (b *broker) run(docs []uint16, pc *pacer, timed bool) error {
	n := len(docs)
	b.mu.Lock()
	b.rd = round{
		base: b.published, docs: docs,
		intended: make([]time.Duration, n), sent: make([]time.Duration, n),
		acked: make([]time.Duration, n), done: make([]time.Duration, n),
		wantSubs: make([]int32, n), wantAck: make([]int32, n),
		delivered: make([]bool, n), publishing: true, finished: make(chan struct{}),
		timed: timed || pc != nil,
	}
	rd := &b.rd
	b.mu.Unlock()

	for i, d := range docs {
		var due time.Duration
		if pc != nil {
			due = pc.wait(i)
		}
		doc := b.p.Docs[d]
		b.published++
		setTag(doc, b.published)
		b.t.attempted.Add(1)

		b.mu.Lock()
		if rd.timed {
			now := clock()
			if pc == nil {
				due = now
			}
			rd.intended[i], rd.sent[i] = due, now
		}
		rd.wantSubs[i], rd.wantAck[i] = b.expect(d)
		rd.remaining++ // the ack
		if rd.wantSubs[i] > 0 {
			rd.remaining++ // the delivery
		}
		b.mu.Unlock()

		if b.pipe != nil && !b.sync {
			seq, err := b.pipe.Publish(doc)
			if err != nil {
				b.t.failf("publish: %v", err)
				return err
			}
			if seq != b.published {
				return fmt.Errorf("pipeline seq %d out of step with tag %d", seq, b.published)
			}
			continue
		}
		matches, err := b.pub.Publish(doc)
		b.onAck(client.PublishResult{Seq: b.published, Matches: matches, Err: err})
		if err != nil {
			return err
		}
		if every := b.p.W.ChurnEvery; every > 0 && (i+1)%every == 0 {
			if err := b.churn(); err != nil {
				return err
			}
		}
	}

	b.mu.Lock()
	rd.publishing = false
	complete := rd.remaining == 0
	b.mu.Unlock()
	if complete {
		return nil
	}
	select {
	case <-rd.finished:
		return nil
	case <-time.After(roundTimeout):
		b.mu.Lock()
		missing := rd.remaining
		b.mu.Unlock()
		b.t.failed.Add(int64(missing))
		return fmt.Errorf("round timed out: %d acks/deliveries missing", missing)
	}
}

// settle accounts one arrived ack or delivery of the round. Callers hold mu.
func (rd *round) settle() {
	rd.remaining--
	if rd.remaining == 0 && !rd.publishing {
		close(rd.finished)
	}
}

// now reads the clock on timed rounds only.
func (rd *round) now() time.Duration {
	if rd.timed {
		return clock()
	}
	return 0
}

// index maps a sequence tag to its position in the current round.
func (rd *round) index(seq uint64) (int, bool) {
	i := int(seq - rd.base - 1)
	return i, seq > rd.base && i < len(rd.docs)
}

// onAck checks one publish acknowledgement. It runs on the publisher
// connection's read loop (or inline on the synchronous script).
func (b *broker) onAck(r client.PublishResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rd := &b.rd
	now := rd.now()
	i, ok := rd.index(r.Seq)
	switch {
	case !ok:
		b.t.failf("ack for seq %d outside the round", r.Seq)
		return
	case r.Err != nil:
		b.t.failf("publish seq %d rejected: %v", r.Seq, r.Err)
	case int32(r.Matches) != rd.wantAck[i]:
		b.t.failf("ack seq %d reports %d matches, oracle expects %d", r.Seq, r.Matches, rd.wantAck[i])
	}
	rd.acked[i] = now
	if rd.wantSubs[i] == 0 {
		rd.done[i] = now
	}
	rd.settle()
}

// onDeliver checks one delivery against the oracle. It runs on the
// subscriber connection's read loop.
func (b *broker) onDeliver(d client.Delivery) {
	seq, ok := readTag(d.Doc)
	if !ok {
		b.t.failf("delivery without a sequence tag")
		return
	}
	if d.Durable {
		// Cursor acks ride the delivery path, as a real durable consumer's
		// would; Ack is fire-and-forget, so calling it here cannot deadlock
		// the read loop.
		if b.delivered++; b.delivered%ackEvery == 0 {
			if err := b.sub.Ack(d.Offset); err != nil {
				b.t.failf("ack offset %d: %v", d.Offset, err)
			}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	rd := &b.rd
	now := rd.now()
	i, ok := rd.index(seq)
	if !ok {
		if b.replaying && seq <= rd.base {
			return // at-least-once: an unacked document from before the reconnect
		}
		b.t.failf("extra delivery: seq %d outside the round", seq)
		return
	}
	if d.Durable != b.p.W.Durable {
		b.t.failf("delivery seq %d durable=%v on the wrong plane", seq, d.Durable)
	}
	doc := int(rd.docs[i])
	for _, id := range d.Filters {
		if id >= uint64(len(b.subFilter)) || b.subFilter[id] < 0 {
			// A reconnecting subscriber can be delivered to before its
			// Subscribe call has returned the id.
			if !b.replaying {
				b.t.failf("delivery seq %d names unknown subscription %d", seq, id)
			}
		} else if !b.o.matches(doc, b.subFilter[id]) {
			b.t.failf("extra delivery: seq %d to subscription %d whose filter does not match", seq, id)
		} else if !b.replaying && (seq < b.subFrom[id] || seq >= b.subUntil[id]) {
			b.t.failf("extra delivery: seq %d to subscription %d not live at publish", seq, id)
		}
	}
	if rd.delivered[i] {
		if !b.replaying {
			b.t.failf("extra delivery: seq %d delivered twice", seq)
		}
		return
	}
	if got := int32(len(d.Filters)); got != rd.wantSubs[i] && !b.replaying {
		b.t.failf("seq %d delivered to %d subscriptions, oracle expects %d", seq, got, rd.wantSubs[i])
	}
	if rd.wantSubs[i] == 0 {
		return // nothing waits on it: failed by the count check, or replayed backlog
	}
	rd.delivered[i] = true
	rd.done[i] = now
	rd.settle()
}

func (b *broker) latenciesMS(dst []float64) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, done := range b.rd.done {
		dst = append(dst, ms(done-b.rd.intended[i]))
	}
	return dst
}

// ackLatenciesMS appends the last timed round's send-to-ack times.
func (b *broker) ackLatenciesMS(dst []float64) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, at := range b.rd.acked {
		dst = append(dst, ms(at-b.rd.sent[i]))
	}
	return dst
}

// spans records each of the first n documents of the last timed round as a
// publish span
// from its intended start to its completion, with the publish-to-ack and
// publish-to-deliver intervals as children.
func (b *broker) spans(log *spanLog, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rd := &b.rd
	for i := range rd.docs[:min(n, len(rd.docs))] {
		seq := int64(rd.base) + int64(i) + 1
		root := log.add("publish", rd.intended[i], rd.done[i], 0, seq)
		log.add("publish→ack", rd.sent[i], rd.acked[i], root, seq)
		if rd.wantSubs[i] > 0 {
			log.add("publish→deliver", rd.sent[i], rd.done[i], root, seq)
		}
	}
}

// addFilter is one subscribe/unsubscribe pair on the spare slot; the
// subscribe round trip is what it reports.
func (b *broker) addFilter(i int) (time.Duration, error) {
	spare := len(b.p.Subs)
	s, err := b.subscribe(spare, b.p.SubscribeDraws[i%len(b.p.SubscribeDraws)])
	if err != nil {
		return s, err
	}
	u, err := b.unsubscribe(spare)
	b.subscribeMS = append(b.subscribeMS, ms(s))
	b.unsubscribeMS = append(b.unsubscribeMS, ms(u))
	return s, err
}

// machine reads the live machine from /debug/machine when the debug
// listener is on (traced runs), else the little the Server API exposes.
func (b *broker) machine() machineInfo {
	st := b.srv.Stats()
	mi := machineInfo{States: st.States, HitRatio: st.HitRatio,
		Consolidations: b.scrape("xpushserve_consolidations_total")}
	if b.srv.DebugAddr() == "" {
		return mi
	}
	resp, err := http.Get("http://" + b.srv.DebugAddr() + "/debug/machine")
	if err != nil {
		return mi
	}
	defer resp.Body.Close()
	var snap struct {
		Layers      int   `json:"layers"`
		MemoryBytes int64 `json:"memory_bytes"`
	}
	if json.NewDecoder(resp.Body).Decode(&snap) == nil {
		mi.Layers = snap.Layers
		mi.MemMB = float64(snap.MemoryBytes) / (1 << 20)
	}
	return mi
}

// strayDelivery flags any delivery on the publisher connection, which holds
// no subscription.
func (b *broker) strayDelivery(client.Delivery) {
	b.t.failf("extra delivery on the publisher connection")
}

// scrape reads one unlabeled series from the broker's metric registry.
func (b *broker) scrape(name string) float64 {
	var buf bytes.Buffer
	if err := b.srv.Registry().WritePrometheus(&buf); err != nil {
		return 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// close tears the broker down in dependency order and removes its log.
func (b *broker) close() {
	if b.pipe != nil {
		b.pipe.Close()
	}
	for _, c := range []*client.Client{b.pub, b.sub} {
		if c != nil {
			c.Close()
		}
	}
	if b.gate != nil {
		b.gate.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	if b.log != nil {
		b.log.Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// replay measures a durable reconnect: the subscriber goes away, backlog is
// published into the log behind its cursor, and it reconnects under the same
// name. The returned time runs from the reconnect's dial to the arrival of
// the last backlog document some subscription matches — the pump reads the
// log in order, so everything before it has been re-filtered and written by
// then.
func (b *broker) replay(backlog []uint16) (time.Duration, error) {
	last := -1
	b.mu.Lock()
	for i, d := range backlog {
		if subs, _ := b.expect(d); subs > 0 {
			last = i
		}
	}
	b.mu.Unlock()
	if last < 0 {
		return 0, fmt.Errorf("no backlog document matches any subscription")
	}

	b.sub.Close()
	deadline := time.Now().Add(roundTimeout)
	for b.srv.NumSubscriptions() > 0 {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("broker kept %d subscriptions of the closed connection", b.srv.NumSubscriptions())
		}
		time.Sleep(time.Millisecond)
	}
	b.mu.Lock()
	for id := range b.subUntil {
		b.subUntil[id] = min(b.subUntil[id], b.published+1)
	}
	clear(b.nsubs)
	b.mu.Unlock()

	// With nobody subscribed the backlog completes on its acks alone.
	if err := b.run(backlog, nil, false); err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.replaying = true
	rd := &b.rd
	rd.timed, rd.remaining, rd.finished = true, 1, make(chan struct{})
	rd.wantSubs[last] = 1
	b.mu.Unlock()

	t0 := clock()
	if err := b.connectSubscriber(); err != nil {
		return 0, err
	}
	select {
	case <-rd.finished:
	case <-time.After(roundTimeout):
		b.t.failf("replay never delivered the end of the backlog")
		return 0, fmt.Errorf("replay timed out")
	}
	b.mu.Lock()
	b.replaying = false
	took := rd.done[last] - t0
	b.mu.Unlock()
	return took, nil
}
