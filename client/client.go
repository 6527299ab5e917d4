// Package client is the Go client for the repro/server broker: it speaks
// the length-prefixed framed protocol (see repro/server), multiplexing
// synchronous request/response calls (Subscribe, Unsubscribe, Publish,
// Ping) with asynchronous DELIVER notifications on one TCP connection.
package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"

	"repro/internal/sax"
	"repro/server"
)

// Delivery is one matched-document notification from the broker.
type Delivery struct {
	// Filters holds the server-assigned ids of this client's filters that
	// matched the document.
	Filters []uint64
	// Doc is the document's bytes. Doc and Filters are valid only until
	// OnDeliver returns: the read loop reads the next frame into the same
	// memory, so a handler that keeps either copies it.
	Doc []byte
	// Durable reports whether this delivery came over a durable
	// subscription's replay stream; Offset is then the document's log
	// offset — pass it to Ack once the document is safely processed.
	// Non-durable deliveries carry no offset.
	Durable bool
	Offset  uint64
	// TraceID is non-zero when the broker traced this document end to end;
	// look the id up in the broker's /debug/traces output to see where the
	// delivery spent its time.
	TraceID uint64
}

// Options configures a Client. The zero value is usable.
type Options struct {
	// OnDeliver receives matched-document notifications. It is called
	// synchronously from the read loop: a slow handler delays subsequent
	// frames (and eventually exerts the server's backpressure policy),
	// which is often exactly what a subscriber wants. The Delivery's slices
	// are reused once it returns (see Delivery). nil discards deliveries.
	OnDeliver func(Delivery)
	// MaxDocBytes bounds frames in both directions, mirroring the
	// server's limit, and each document PublishStreamPipelined cuts from
	// its reader (0 = 64 MiB).
	MaxDocBytes int
	// Timeout bounds each request's wait for its response (0 = none).
	Timeout time.Duration
	// DialTimeout bounds the initial connect (0 = none).
	DialTimeout time.Duration
}

func (o *Options) maxDocBytes() int {
	if o.MaxDocBytes > 0 {
		return o.MaxDocBytes
	}
	return 64 << 20
}

// Client is a broker connection. All methods are safe for concurrent use;
// requests are serialized on the wire.
type Client struct {
	nc  net.Conn
	opt Options

	reqMu sync.Mutex // serializes request/response round-trips
	resp  chan server.Frame

	// The writer, guarded by wmu. wbuf holds the active pipeline's held
	// PUBLISH_ASYNC frames, then the frame being written (see writeFrame).
	// sent counts the pipeline's frames written and not yet acked, held its
	// frames waiting in wbuf (see Pipeline.Submit).
	wmu        sync.Mutex
	wbuf       []byte
	sent, held int

	done    chan struct{} // closed when the read loop exits
	errMu   sync.Mutex
	readErr error

	pipeMu sync.Mutex
	pipe   *Pipeline // active pipelined publisher, if any
	ended  bool      // the read loop is over: no pipeline may start

	closeOnce sync.Once
}

// Dial connects to a broker.
func Dial(addr string, opt Options) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	return newClient(nc, opt), nil
}

// newClient runs a client over an established connection.
func newClient(nc net.Conn, opt Options) *Client {
	c := &Client{
		nc:   nc,
		opt:  opt,
		resp: make(chan server.Frame, 1),
		done: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// maxKeptReadBuf bounds the frame buffer the read loop keeps between
// frames; a larger frame's buffer is dropped once it is handled.
const maxKeptReadBuf = 1 << 20

// readLoop routes incoming frames: DELIVER to the handler, everything else
// to the pending request. Every frame is read into one reused buffer and
// decoded where it lies, so a delivery allocates nothing; only a reply
// handed to a waiting request is copied out of it.
func (c *Client) readLoop() {
	defer c.end()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte           // the frame in hand, reused
	var ids []uint64         // a delivery's filter ids, reused
	var acks []server.PubAck // reused across PUBACKS frames
	for {
		f, err := server.ReadFrameInto(br, buf, c.opt.maxDocBytes())
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = io.EOF
			}
			c.latch(err)
			return
		}
		if cap(f.Payload) <= maxKeptReadBuf {
			buf = f.Payload
		}
		switch f.Type {
		case server.FrameDeliver:
			if c.opt.OnDeliver != nil {
				var doc []byte
				var traceID uint64
				if ids, doc, traceID, err = server.AppendDecodeDeliver(ids[:0], f.Payload); err == nil {
					c.opt.OnDeliver(Delivery{Filters: ids, Doc: doc, TraceID: traceID})
				}
			}
		case server.FrameDeliverAt:
			if c.opt.OnDeliver != nil {
				var off, traceID uint64
				var doc []byte
				if off, ids, doc, traceID, err = server.AppendDecodeDeliverAt(ids[:0], f.Payload); err == nil {
					c.opt.OnDeliver(Delivery{Filters: ids, Doc: doc, Durable: true, Offset: off, TraceID: traceID})
				}
			}
		case server.FrameProtoErr:
			// The server is about to close the connection; latch its reason
			// so Err() reports the protocol violation instead of a bare EOF.
			c.latch(fmt.Errorf("client: protocol error from server: %s", f.Payload))
		case server.FramePubAcks:
			c.pipeMu.Lock()
			p := c.pipe
			c.pipeMu.Unlock()
			if p != nil {
				if acks, err = server.AppendDecodePubAcks(acks[:0], f.Payload); err == nil {
					p.acked(len(acks))
					p.handleAcks(acks)
				}
			}
		default:
			f.Payload = bytes.Clone(f.Payload)
			select {
			case c.resp <- f:
			default: // unsolicited response; drop rather than stall deliveries
			}
		}
	}
}

// latch records the connection's terminal error; the first one wins.
func (c *Client) latch(err error) {
	c.errMu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.errMu.Unlock()
}

// end runs as the read loop exits: it settles the active pipeline's
// in-flight documents with the connection's error, then closes done.
func (c *Client) end() {
	c.pipeMu.Lock()
	p := c.pipe
	c.ended = true
	c.pipeMu.Unlock()
	if p != nil {
		p.fail(fmt.Errorf("client: connection closed: %w", c.err()))
	}
	close(c.done)
}

// maxKeptWriteBuf bounds the frame buffer a client keeps between writes; a
// larger buffer is dropped once it is sent. Held frames never grow it past
// this bound: the frame that reaches it is written with them.
const maxKeptWriteBuf = 1 << 20

// writeFrame sends one frame (see appendFrame) in a single Write, behind the
// pipeline's held frames, so frame order on the wire is the order of the
// calls.
func (c *Client) writeFrame(typ byte, body []byte, words ...uint64) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendFrame(c.wbuf, typ, body, words...)
	return c.writeLocked()
}

// appendFrame appends one frame to b: the header, the 8-byte words (a trace
// id, a sequence number, an offset or an id) and then body.
func appendFrame(b []byte, typ byte, body []byte, words ...uint64) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(1+8*len(words)+len(body)))
	b = append(b, typ)
	for _, w := range words {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	return append(b, body...)
}

// writeLocked writes everything in wbuf in one Write; the held frames in it
// count as sent from here on. A failed write may have sent part of a frame,
// leaving the stream unframed, so it closes the connection with the write
// error as the connection's error. The caller holds wmu.
func (c *Client) writeLocked() error {
	b := c.wbuf
	c.wbuf = b[:0]
	if cap(b) > maxKeptWriteBuf {
		c.wbuf = nil
	}
	c.sent += c.held
	c.held = 0
	if _, err := c.nc.Write(b); err != nil {
		c.latch(err)
		c.nc.Close()
		return err
	}
	return nil
}

// roundTrip sends one request frame (see writeFrame) and waits for its
// response.
func (c *Client) roundTrip(typ byte, body []byte, words ...uint64) (server.Frame, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	// Drop any stale response left by a timed-out predecessor.
	select {
	case <-c.resp:
	default:
	}
	if err := c.writeFrame(typ, body, words...); err != nil {
		return server.Frame{}, err
	}
	var timeout <-chan time.Time
	if c.opt.Timeout > 0 {
		t := time.NewTimer(c.opt.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	var f server.Frame
	select {
	case f = <-c.resp:
	case <-c.done:
		// A server that answers and then closes (an oversized frame, say)
		// leaves both channels ready and select picks either: the reply the
		// read loop queued before it saw the close still counts.
		select {
		case f = <-c.resp:
		default:
			return server.Frame{}, fmt.Errorf("client: connection closed: %w", c.err())
		}
	case <-timeout:
		return server.Frame{}, fmt.Errorf("client: request timed out after %v", c.opt.Timeout)
	}
	if f.Type == server.FrameErr {
		return f, fmt.Errorf("client: server error: %s", f.Payload)
	}
	return f, nil
}

// Subscribe registers an XPath filter and returns its server-assigned
// subscription id. Matching documents arrive via Options.OnDeliver. The id
// identifies this subscription, not a machine query: the broker
// deduplicates equivalent filters across subscribers behind the same
// compiled query, so two clients subscribing to the same filter get
// distinct ids riding on shared machine state.
func (c *Client) Subscribe(xpath string) (uint64, error) {
	f, err := c.roundTrip(server.FrameSubscribe, []byte(xpath))
	if err != nil {
		return 0, err
	}
	return server.ParseUint64(f.Payload)
}

// SubscribeDurable registers an XPath filter under a persistent subscriber
// name (a WAL-backed broker is required). Matching documents arrive via
// Options.OnDeliver with Durable set; the broker replays every document
// published since the name's persisted cursor, so after acknowledging with
// Ack a reconnecting subscriber resumes exactly where it left off
// (at-least-once: unacked documents are delivered again). resume is the log
// offset replay starts from. Reconnecting under a live name takes it over —
// the broker closes the previous connection.
func (c *Client) SubscribeDurable(name, xpath string) (id, resume uint64, err error) {
	payload := server.AppendSubscribeDurablePayload(nil, name, xpath)
	f, err := c.roundTrip(server.FrameSubscribeDurable, payload)
	if err != nil {
		return 0, 0, err
	}
	if len(f.Payload) != 16 {
		return 0, 0, fmt.Errorf("client: expected 16-byte durable-subscribe reply, got %d", len(f.Payload))
	}
	id, _ = server.ParseUint64(f.Payload[:8])
	resume, _ = server.ParseUint64(f.Payload[8:])
	return id, resume, nil
}

// Ack tells the broker every durable delivery at or below offset is
// processed; the persisted cursor advances past it. Acks are fire-and-forget
// (no response frame), so calling Ack from inside OnDeliver is safe — it
// cannot deadlock against the read loop.
func (c *Client) Ack(offset uint64) error {
	return c.writeFrame(server.FrameAck, nil, offset)
}

// Unsubscribe removes a filter previously registered on this connection.
func (c *Client) Unsubscribe(id uint64) error {
	_, err := c.roundTrip(server.FrameUnsubscribe, nil, id)
	return err
}

// Publish sends one XML document and returns how many subscriptions
// (across all subscribers) matched it.
func (c *Client) Publish(doc []byte) (int, error) {
	return c.PublishTraced(doc, 0)
}

// PublishTraced is Publish carrying an upstream trace id: the broker adopts
// the id for its own spans (wal_append, filter, deliver), so the document's
// trace stitches across process hops. A zero traceID sends the plain,
// byte-identical PUBLISH frame.
func (c *Client) PublishTraced(doc []byte, traceID uint64) (int, error) {
	var f server.Frame
	var err error
	if traceID != 0 {
		f, err = c.roundTrip(server.FramePublish|server.FrameTraceFlag, doc, traceID)
	} else {
		f, err = c.roundTrip(server.FramePublish, doc)
	}
	if err != nil {
		return 0, err
	}
	n, err := server.ParseUint64(f.Payload)
	return int(n), err
}

// Ping round-trips a keepalive.
func (c *Client) Ping() error {
	f, err := c.roundTrip(server.FramePing, nil)
	if err != nil {
		return err
	}
	if f.Type != server.FramePong {
		return fmt.Errorf("client: expected PONG, got frame 0x%02x", f.Type)
	}
	return nil
}

// RemoteAddr returns the address of the broker end of the connection.
func (c *Client) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Done is closed when the connection's read loop has exited (server closed
// the connection, or Close was called) — after the final delivery has been
// handed to OnDeliver.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the connection's terminal error after Done is closed (io.EOF
// for a clean remote close, the write error if a write failed).
func (c *Client) Err() error {
	<-c.done
	return c.err()
}

func (c *Client) err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.readErr
}

// Close tears the connection down and waits for the read loop to finish.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { c.nc.Close() })
	<-c.done
	return nil
}

// PublishResult is the broker's acknowledgement of one pipelined publish.
type PublishResult struct {
	// Seq is the sequence number the pipeline assigned to the document
	// (starting at 1, in submission order).
	Seq uint64
	// Matches is how many filters matched, when Err is nil.
	Matches int
	// Err is the broker-side failure for this document (e.g. the WAL
	// rejected the append), or the connection's error for a document still
	// in flight when the connection ended. The pipeline keeps running on a
	// broker-side failure; use Close's return to learn whether any publish
	// in the stream failed.
	Err error
}

// Pipeline streams publishes without a per-document round trip: Publish
// queues a PUBLISH_ASYNC frame and returns as soon as the in-flight window
// has room, while the broker's batched acks flow back on the read loop.
// Against a fsync=always WAL broker this lets many documents share one
// group-committed fsync instead of paying one each.
//
// The broker's acks clock the writes. A frame goes out at once while fewer
// than half the window are written and unacked; past that it is held in the
// client's write buffer until the held frames are as many as the written
// ones, or until a PUBACKS frame brings the written ones back under half the
// window. So a stream that keeps the window full writes its frames in
// bursts, and a light one writes each frame as it comes. Holding cannot
// stall: a frame is held only while half a window is written and unacked,
// the broker acks every publish once the publishes running beside it end,
// and each PUBACKS re-checks the rule. Any other frame the client writes,
// and Close, sends the held frames first.
//
// The pipeline is the one place that maps an ack to its document: Submit
// registers the document's completion before its frame is written, and
// every accepted document is settled exactly once — by its ack, or with the
// connection's error when the read loop ends.
//
// A Pipeline is safe for concurrent use, but documents are sequenced in the
// order Submit acquires the window. Close drains the window and reports the
// first failed publish.
type Pipeline struct {
	c        *Client
	onResult func(PublishResult) // Publish's completion; may be nil

	tokens chan struct{} // in-flight window; one token per accepted doc

	mu       sync.Mutex
	seq      uint64
	slots    []inflight // accepted documents, open-addressed by seq
	inflight int        // accepted documents not yet settled
	firstErr error
	refuse   error         // set by Close or the connection's end
	signal   chan struct{} // buffered(1): kicked when inflight hits 0
}

// inflight is one accepted document awaiting its ack; seq 0 marks a free
// slot.
type inflight struct {
	seq  uint64
	done func(PublishResult)
}

// PublishPipelined starts a pipelined publish stream with the given
// in-flight window (documents written but not yet acked; <=0 means 64).
// onResult, if non-nil, is Publish's completion: it receives each
// acknowledgement from the read loop, and the connection's error for each
// document in flight when the connection ends — it must not block, or
// deliveries stall. Only one Pipeline may be active per client; Close it
// before starting another.
func (c *Client) PublishPipelined(window int, onResult func(PublishResult)) (*Pipeline, error) {
	if window <= 0 {
		window = 64
	}
	p := &Pipeline{
		c:        c,
		onResult: onResult,
		tokens:   make(chan struct{}, window),
		// At most window documents are in flight, so a power of two of at
		// least twice as many slots always has a free one and short probes.
		slots:  make([]inflight, 1<<bits.Len(uint(2*window-1))),
		signal: make(chan struct{}, 1),
	}
	c.pipeMu.Lock()
	defer c.pipeMu.Unlock()
	if c.pipe != nil {
		return nil, errors.New("client: a pipeline is already active; Close it first")
	}
	if c.ended {
		return nil, fmt.Errorf("client: connection closed: %w", c.err())
	}
	c.pipe = p
	// The ack clock starts over: a timed-out predecessor's frames may never
	// be acked.
	c.wmu.Lock()
	c.sent = 0
	c.wmu.Unlock()
	return p, nil
}

// Publish submits one document (see Submit), blocking only while the
// in-flight window is full; its acknowledgement goes to the pipeline's
// onResult. The returned sequence number matches the eventual
// PublishResult.
func (p *Pipeline) Publish(doc []byte) (uint64, error) {
	return p.Submit(doc, 0, p.onResult)
}

// PublishTraced is Publish carrying an upstream trace id (see
// Client.PublishTraced). A zero traceID sends the plain PUBLISH_ASYNC frame.
func (p *Pipeline) PublishTraced(doc []byte, traceID uint64) (uint64, error) {
	return p.Submit(doc, traceID, p.onResult)
}

// Submit sends one document with an optional trace id (0 = untraced) and
// an optional completion, blocking only while the in-flight window is full.
// Its PUBLISH_ASYNC frame is written before Submit returns unless half the
// window is already written and unacked and fewer frames are held than
// written; then it is held, and goes out with a later frame or after a
// PUBACKS (see Pipeline). A document Submit accepts (nil error) is settled
// exactly once: done, if non-nil, runs with its ack on the read loop, or
// with the connection's error when the read loop ends — a failed write ends
// it. A document Submit refuses, because the pipeline is closed or the
// connection is gone, is never passed to done.
func (p *Pipeline) Submit(doc []byte, traceID uint64, done func(PublishResult)) (uint64, error) {
	select {
	case p.tokens <- struct{}{}:
	case <-p.c.done:
		return 0, fmt.Errorf("client: connection closed: %w", p.c.err())
	}
	p.mu.Lock()
	if err := p.refuse; err != nil {
		p.mu.Unlock()
		<-p.tokens
		return 0, err
	}
	p.seq++
	seq := p.seq
	p.put(inflight{seq, done})
	p.inflight++
	p.mu.Unlock()

	// A traced frame carries the trace id ahead of the sequence number. A
	// write error closes the connection, whose end settles the document
	// with that error, so it needs no handling here.
	c := p.c
	c.wmu.Lock()
	if traceID != 0 {
		c.wbuf = appendFrame(c.wbuf, server.FramePublishAsync|server.FrameTraceFlag, doc, traceID, seq)
	} else {
		c.wbuf = appendFrame(c.wbuf, server.FramePublishAsync, doc, seq)
	}
	c.held++
	p.writeHeld()
	c.wmu.Unlock()
	return seq, nil
}

// writeHeld writes the held frames if the ack clock lets them go: while
// fewer than half the window are written and unacked, once the held frames
// are as many as the written ones, or when they fill the kept write buffer.
// The caller holds c.wmu.
func (p *Pipeline) writeHeld() {
	c := p.c
	if c.held > 0 && (2*c.sent < cap(p.tokens) || c.held >= c.sent || len(c.wbuf) >= maxKeptWriteBuf) {
		_ = c.writeLocked()
	}
}

// acked runs on the read loop for every PUBACKS frame, before its acks
// settle: n written frames are no longer in flight, which may release the
// held ones.
func (p *Pipeline) acked(n int) {
	c := p.c
	c.wmu.Lock()
	c.sent -= n
	p.writeHeld()
	c.wmu.Unlock()
}

// put registers an accepted document. The caller holds mu.
func (p *Pipeline) put(e inflight) {
	mask := uint64(len(p.slots) - 1)
	i := e.seq & mask
	for p.slots[i].seq != 0 {
		i = (i + 1) & mask
	}
	p.slots[i] = e
}

// take unregisters seq, reporting its completion and whether it was
// registered. The entries after it in its probe run shift back, so no
// tombstone lengthens a later probe. The caller holds mu.
func (p *Pipeline) take(seq uint64) (func(PublishResult), bool) {
	mask := uint64(len(p.slots) - 1)
	i := seq & mask
	for p.slots[i].seq != seq || seq == 0 {
		if p.slots[i].seq == 0 {
			return nil, false
		}
		i = (i + 1) & mask
	}
	done := p.slots[i].done
	for j := i; ; {
		j = (j + 1) & mask
		s := p.slots[j].seq
		if s == 0 {
			break
		}
		if (j-s)&mask < (j-i)&mask {
			continue // s's home slot lies after i: it stays reachable
		}
		p.slots[i] = p.slots[j]
		i = j
	}
	p.slots[i] = inflight{}
	return done, true
}

// handleAcks runs on the read loop for every PUBACKS frame. An ack for a
// sequence number that is not in flight is ignored.
func (p *Pipeline) handleAcks(acks []server.PubAck) {
	for _, a := range acks {
		p.mu.Lock()
		done, ok := p.take(a.Seq)
		p.mu.Unlock()
		if !ok {
			continue
		}
		r := PublishResult{Seq: a.Seq, Matches: int(a.Matches)}
		if a.Err != "" {
			r.Err = fmt.Errorf("client: server error: %s", a.Err)
		}
		p.settle(r, done)
	}
}

// fail settles every document still in flight with err and refuses new
// ones.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.refuse == nil {
		p.refuse = err
	}
	var lost []inflight
	for i, e := range p.slots {
		if e.seq != 0 {
			lost = append(lost, e)
			p.slots[i] = inflight{}
		}
	}
	p.mu.Unlock()
	for _, e := range lost {
		p.settle(PublishResult{Seq: e.seq, Err: err}, e.done)
	}
}

// settle records one unregistered document's outcome: it runs the
// completion, then releases the window slot, latches the first error, and
// wakes Close when the window drains — so Close returns only after every
// completion has.
func (p *Pipeline) settle(r PublishResult, done func(PublishResult)) {
	if done != nil {
		done(r)
	}
	p.mu.Lock()
	p.inflight--
	if r.Err != nil && p.firstErr == nil {
		p.firstErr = r.Err
	}
	drained := p.inflight == 0
	p.mu.Unlock()
	<-p.tokens
	if drained {
		select {
		case p.signal <- struct{}{}:
		default:
		}
	}
}

// Close refuses further documents and waits (bounded by Options.Timeout,
// if set) for every in-flight publish to settle, detaches the pipeline from
// the client, and returns the first error any publish in the stream hit.
// On a timeout the documents still in flight are settled with the timeout
// error, since their fates are unknown.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.refuse == nil {
		p.refuse = errors.New("client: pipeline closed")
	}
	p.mu.Unlock()
	p.c.wmu.Lock()
	if p.c.held > 0 {
		_ = p.c.writeLocked()
	}
	p.c.wmu.Unlock()

	var timeout <-chan time.Time
	if d := p.c.opt.Timeout; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for {
		p.mu.Lock()
		drained := p.inflight == 0
		p.mu.Unlock()
		if drained {
			break
		}
		select {
		case <-p.signal:
		case <-timeout:
			timeout = nil
			p.fail(fmt.Errorf("client: pipeline close timed out after %v with publishes in flight", p.c.opt.Timeout))
		}
	}

	p.c.pipeMu.Lock()
	if p.c.pipe == p {
		p.c.pipe = nil
	}
	p.c.pipeMu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr
}

// PublishStreamPipelined splits a stream of concatenated XML documents and
// publishes each through a pipeline with the given window, returning the
// number of documents submitted and the first error (parse, broker-side
// reject, or the connection's end).
func (c *Client) PublishStreamPipelined(r io.Reader, window int) (int, error) {
	p, err := c.PublishPipelined(window, nil)
	if err != nil {
		return 0, err
	}
	n := 0
	streamErr := sax.StreamDocumentsLimit(r, c.opt.MaxDocBytes, func(doc []byte) error {
		if _, err := p.Publish(doc); err != nil {
			return err
		}
		n++
		return nil
	})
	closeErr := p.Close()
	if streamErr != nil {
		return n, streamErr
	}
	return n, closeErr
}
