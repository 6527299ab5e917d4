// Package client is the Go client for the repro/server broker: it speaks
// the length-prefixed framed protocol (see repro/server), multiplexing
// synchronous request/response calls (Subscribe, Unsubscribe, Publish,
// Ping) with asynchronous DELIVER notifications on one TCP connection.
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	// Doc is the document's bytes. The slice is owned by the receiver.
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
	// which is often exactly what a subscriber wants. nil discards
	// deliveries.
	OnDeliver func(Delivery)
	// MaxDocBytes bounds frames in both directions, mirroring the
	// server's limit, and each document PublishStream cuts from its
	// reader (0 = 64 MiB).
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
	wmu   sync.Mutex
	wbuf  []byte // guarded by wmu: the frame being written (see writeFrame)
	resp  chan server.Frame

	done    chan struct{} // closed when the read loop exits
	errMu   sync.Mutex
	readErr error

	pipeMu sync.Mutex
	pipe   *Pipeline // active pipelined publisher, if any

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

// readLoop routes incoming frames: DELIVER to the handler, everything else
// to the pending request.
func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var acks []server.PubAck // reused across PUBACKS frames
	for {
		f, err := server.ReadFrame(br, c.opt.maxDocBytes())
		if err != nil {
			c.errMu.Lock()
			if c.readErr == nil {
				if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
					c.readErr = io.EOF
				} else {
					c.readErr = err
				}
			}
			c.errMu.Unlock()
			return
		}
		if f.Type == server.FrameDeliver {
			if c.opt.OnDeliver != nil {
				filters, doc, traceID, err := server.ParseDeliverPayloadTrace(f.Payload)
				if err == nil {
					c.opt.OnDeliver(Delivery{Filters: filters, Doc: doc, TraceID: traceID})
				}
			}
			continue
		}
		if f.Type == server.FrameDeliverAt {
			if c.opt.OnDeliver != nil {
				off, filters, doc, traceID, err := server.ParseDeliverAtPayloadTrace(f.Payload)
				if err == nil {
					c.opt.OnDeliver(Delivery{Filters: filters, Doc: doc, Durable: true, Offset: off, TraceID: traceID})
				}
			}
			continue
		}
		if f.Type == server.FrameProtoErr {
			// The server is about to close the connection; latch its reason
			// so Err() reports the protocol violation instead of a bare EOF.
			c.errMu.Lock()
			if c.readErr == nil {
				c.readErr = fmt.Errorf("client: protocol error from server: %s", f.Payload)
			}
			c.errMu.Unlock()
			continue
		}
		if f.Type == server.FramePubAcks {
			c.pipeMu.Lock()
			p := c.pipe
			c.pipeMu.Unlock()
			if p != nil {
				var err error
				if acks, err = server.AppendDecodePubAcks(acks[:0], f.Payload); err == nil {
					p.handleAcks(acks)
				}
			}
			continue
		}
		select {
		case c.resp <- f:
		default: // unsolicited response; drop rather than stall deliveries
		}
	}
}

// maxKeptWriteBuf bounds the frame buffer a client keeps between writes; a
// larger frame's buffer is dropped once it is sent.
const maxKeptWriteBuf = 1 << 20

// writeFrame sends one frame in a single Write: the header, the 8-byte
// words (a trace id, a sequence number, an offset or an id) and then body,
// assembled in the client's reused buffer under wmu.
func (c *Client) writeFrame(typ byte, body []byte, words ...uint64) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := binary.BigEndian.AppendUint32(c.wbuf[:0], uint32(1+8*len(words)+len(body)))
	b = append(b, typ)
	for _, w := range words {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	b = append(b, body...)
	if cap(b) <= maxKeptWriteBuf {
		c.wbuf = b
	}
	_, err := c.nc.Write(b)
	return err
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

// PublishStream cuts a stream of concatenated XML documents into documents
// with sax.StreamDocumentsLimit (bounded per document by
// Options.MaxDocBytes) and publishes each as soon as it is in.
// It returns the number of documents published.
func (c *Client) PublishStream(r io.Reader) (int, error) {
	n := 0
	err := sax.StreamDocumentsLimit(r, c.opt.MaxDocBytes, func(doc []byte) error {
		if _, err := c.Publish(doc); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
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

// Err returns the terminal read error after Done is closed (io.EOF for a
// clean remote close).
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
	// Seq is the sequence number Pipeline.Publish assigned to the document
	// (starting at 1, in submission order).
	Seq uint64
	// Matches is how many filters matched, when Err is nil.
	Matches int
	// Err is the broker-side failure for this document (e.g. the WAL
	// rejected the append). The pipeline keeps running; use Close's return
	// to learn whether any publish in the stream failed.
	Err error
}

// Pipeline streams publishes without a per-document round trip: Publish
// writes a PUBLISH_ASYNC frame and returns as soon as the in-flight window
// has room, while the broker's batched acks flow back on the read loop.
// Against a fsync=always WAL broker this lets many documents share one
// group-committed fsync instead of paying one each.
//
// A Pipeline is safe for concurrent use, but documents are sequenced in the
// order Publish acquires the window. Close drains the window and reports the
// first failed publish.
type Pipeline struct {
	c        *Client
	onResult func(PublishResult) // optional, called from the read loop

	tokens chan struct{} // in-flight window; one token per outstanding doc

	mu       sync.Mutex
	seq      uint64
	inflight int
	firstErr error
	closed   bool
	signal   chan struct{} // buffered(1): kicked when inflight hits 0
}

// PublishPipelined starts a pipelined publish stream with the given
// in-flight window (documents written but not yet acked; <=0 means 64).
// onResult, if non-nil, receives every acknowledgement in order from the
// read loop — it must not block, or deliveries stall. Only one Pipeline may
// be active per client; Close it before starting another.
func (c *Client) PublishPipelined(window int, onResult func(PublishResult)) (*Pipeline, error) {
	if window <= 0 {
		window = 64
	}
	p := &Pipeline{
		c:        c,
		onResult: onResult,
		tokens:   make(chan struct{}, window),
		signal:   make(chan struct{}, 1),
	}
	c.pipeMu.Lock()
	defer c.pipeMu.Unlock()
	if c.pipe != nil {
		return nil, errors.New("client: a pipeline is already active; Close it first")
	}
	select {
	case <-c.done:
		return nil, fmt.Errorf("client: connection closed: %w", c.err())
	default:
	}
	c.pipe = p
	return p, nil
}

// Publish submits one document, blocking only while the in-flight window is
// full. The returned sequence number matches the eventual PublishResult. A
// write error tears the pipeline's usefulness down (the connection is
// broken); it is also latched for Close.
func (p *Pipeline) Publish(doc []byte) (uint64, error) {
	return p.PublishTraced(doc, 0)
}

// PublishTraced is Publish carrying an upstream trace id (see
// Client.PublishTraced). A zero traceID sends the plain PUBLISH_ASYNC frame.
func (p *Pipeline) PublishTraced(doc []byte, traceID uint64) (uint64, error) {
	select {
	case p.tokens <- struct{}{}:
	case <-p.c.done:
		return 0, fmt.Errorf("client: connection closed: %w", p.c.err())
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.tokens
		return 0, errors.New("client: pipeline closed")
	}
	p.seq++
	seq := p.seq
	p.inflight++
	p.mu.Unlock()

	// A traced frame carries the trace id ahead of the sequence number.
	var err error
	if traceID != 0 {
		err = p.c.writeFrame(server.FramePublishAsync|server.FrameTraceFlag, doc, traceID, seq)
	} else {
		err = p.c.writeFrame(server.FramePublishAsync, doc, seq)
	}
	if err != nil {
		p.settle(PublishResult{Seq: seq, Err: err}, false)
		return seq, err
	}
	return seq, nil
}

// handleAcks runs on the read loop for every PUBACKS frame.
func (p *Pipeline) handleAcks(acks []server.PubAck) {
	for _, a := range acks {
		r := PublishResult{Seq: a.Seq, Matches: int(a.Matches)}
		if a.Err != "" {
			r.Err = fmt.Errorf("client: server error: %s", a.Err)
		}
		p.settle(r, true)
	}
}

// settle records one document's outcome: releases its window slot, latches
// the first error, and wakes Close when the window drains. notify gates the
// onResult callback (write failures already returned the error to the
// caller directly); it runs before the document leaves the in-flight count,
// so Close returns only after every callback has.
func (p *Pipeline) settle(r PublishResult, notify bool) {
	if notify && p.onResult != nil {
		p.onResult(r)
	}
	p.mu.Lock()
	if p.inflight > 0 {
		p.inflight--
	}
	if r.Err != nil && p.firstErr == nil {
		p.firstErr = r.Err
	}
	drained := p.inflight == 0
	p.mu.Unlock()
	select {
	case <-p.tokens:
	default:
	}
	if drained {
		select {
		case p.signal <- struct{}{}:
		default:
		}
	}
}

// Close waits (bounded by Options.Timeout, if set) for every in-flight
// publish to be acknowledged, detaches the pipeline from the client, and
// returns the first error any publish in the stream hit. A timeout or a
// broken connection surfaces as an error even if no individual publish
// failed, since un-acked documents have unknown fates.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()

	var timeout <-chan time.Time
	if d := p.c.opt.Timeout; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	var waitErr error
wait:
	for {
		p.mu.Lock()
		drained := p.inflight == 0
		p.mu.Unlock()
		if drained {
			break
		}
		select {
		case <-p.signal:
		case <-p.c.done:
			waitErr = fmt.Errorf("client: connection closed with publishes in flight: %w", p.c.err())
			break wait
		case <-timeout:
			waitErr = fmt.Errorf("client: pipeline close timed out after %v with publishes in flight", p.c.opt.Timeout)
			break wait
		}
	}

	p.c.pipeMu.Lock()
	if p.c.pipe == p {
		p.c.pipe = nil
	}
	p.c.pipeMu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstErr != nil {
		return p.firstErr
	}
	return waitErr
}

// PublishStreamPipelined splits a stream of concatenated XML documents and
// publishes each through a pipeline with the given window, returning the
// number of documents submitted and the first error (parse, write, or
// broker-side reject).
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
