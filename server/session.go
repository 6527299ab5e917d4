package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// SessionHandler is what a Session needs from the endpoint behind it: the
// broker's per-connection state (conn) or the gate's per-subscriber routing
// (cluster.gconn). Every method runs on the session's read loop, in frame
// order, except Publish for a PUBLISH_ASYNC frame.
type SessionHandler interface {
	Subscribe(query string) (id uint64, err error)
	SubscribeDurable(name, query string) (id, resume uint64, err error)
	Unsubscribe(id uint64) error
	Ack(offset uint64)
	// StagePublish does the part of a publish that must keep frame order
	// (the broker stages the document's log append here), for PUBLISH and
	// PUBLISH_ASYNC alike; what it returns goes to Publish. An error rejects
	// the publish there and then.
	StagePublish(doc []byte) (staged PendingAppend, err error)
	// Publish runs inline for PUBLISH and on a window worker for
	// PUBLISH_ASYNC. doc is the frame's own payload — nothing else writes to
	// it — so whatever Publish hands it to may keep it.
	Publish(doc []byte, traceID uint64, staged PendingAppend) (matches int, err error)
}

// SessionOptions is the per-endpoint configuration of a Session.
type SessionOptions struct {
	// MaxPayload is the frame payload limit.
	MaxPayload int
	// Window bounds the PUBLISH_ASYNC frames one connection may have in
	// flight before its read loop stops consuming frames.
	Window int
	// ReadTimeout is the per-frame read deadline while the connection holds
	// no subscription (0 = none); subscribers legitimately go quiet forever.
	ReadTimeout time.Duration
	// WriteTimeout is the deadline of every write (0 = none).
	WriteTimeout time.Duration
	// SubLat and UnsubLat observe SUBSCRIBE (durable included) and
	// UNSUBSCRIBE handling time, frame parse through reply write.
	SubLat, UnsubLat *obs.Histogram
	// ErrPrefix names the endpoint in the protocol errors the session itself
	// raises ("server", "xpushgate").
	ErrPrefix string
}

// An oversized frame's payload is discarded before the connection closes
// (see Serve), up to these bounds; past them the peer sees a reset.
const (
	discardMaxBytes = 16 << 20
	discardTimeout  = 250 * time.Millisecond
)

// maxPubAckBatch bounds how many publish outcomes one PubAcks frame
// coalesces.
const maxPubAckBatch = 512

// Session speaks the server side of the wire protocol on one connection: the
// frame read loop and dispatch, replies and deliveries under one writer lock,
// and the pipelined-publish window with its coalescing ack writer. What a
// frame means is the handler's business; tearing down is the owner's (Serve
// returns, the owner calls StopAsync and Close in the order it needs).
type Session struct {
	nc  net.Conn
	h   SessionHandler
	opt SessionOptions
	br  *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer

	// nsubs counts the subscriptions made on this connection (read loop
	// only): the idle read deadline applies while it is zero.
	nsubs int

	// Pipelined-publish state, created by the read loop on the first
	// PUBLISH_ASYNC. sem is the in-flight window: the read loop acquires it,
	// so a client overrunning the window is paced by TCP backpressure. jobs
	// hands staged publishes to the parked workers (unbuffered: a send
	// succeeds at once only if a worker is idle); workers counts them (read
	// loop only). acks carries publish outcomes to the one ack-writer
	// goroutine.
	sem     chan struct{}
	jobs    chan asyncJob
	workers int
	acks    chan PubAck
	wg      sync.WaitGroup // the publish workers
	ackWG   sync.WaitGroup // the ack-writer goroutine

	closeOnce sync.Once
}

// NewSession wraps an accepted connection; Serve runs it.
func NewSession(nc net.Conn, h SessionHandler, opt SessionOptions) *Session {
	return &Session{
		nc: nc, h: h, opt: opt,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
}

// RemoteAddr names the peer (for log lines).
func (ss *Session) RemoteAddr() net.Addr { return ss.nc.RemoteAddr() }

// Close closes the socket, which ends Serve and fails writes in progress.
func (ss *Session) Close() {
	ss.closeOnce.Do(func() { ss.nc.Close() })
}

// Serve runs the frame loop until a read error, a write error, a protocol
// violation or Close.
func (ss *Session) Serve() {
	armed := false // whether the idle read deadline is set on the socket
	for {
		// The idle deadline is re-armed per frame while it applies and
		// cleared once when it stops applying; otherwise the socket is left
		// alone.
		if ss.opt.ReadTimeout > 0 && ss.nsubs == 0 {
			ss.nc.SetReadDeadline(time.Now().Add(ss.opt.ReadTimeout))
			armed = true
		} else if armed {
			ss.nc.SetReadDeadline(time.Time{})
			armed = false
		}
		f, err := ReadFrame(ss.br, ss.opt.MaxPayload)
		if err != nil {
			var big *ErrFrameTooLarge
			if errors.As(err, &big) {
				// The oversized payload was not consumed; the stream is
				// desynchronized. Report and close — but closing a socket
				// with unread bytes queued makes the kernel answer with a
				// reset, which destroys the ERR frame on its way to the
				// peer. So first discard what was declared, bounded in
				// bytes and in time.
				ss.writeFrame(FrameErr, []byte(big.Error()))
				ss.nc.SetReadDeadline(time.Now().Add(discardTimeout))
				io.CopyN(io.Discard, ss.br, min(int64(big.Size), discardMaxBytes))
			}
			return
		}
		if !ss.dispatch(f) {
			return
		}
	}
}

// dispatch handles one frame; false ends the session.
func (ss *Session) dispatch(f Frame) bool {
	typ := f.Type
	var traceID uint64
	if typ&FrameTraceFlag != 0 {
		// A FrameTraceFlag-marked publish carries the upstream hop's trace id
		// before its normal payload; strip it and dispatch on the base type.
		// The flag is only defined for the publish frames — anything else
		// falls through to the unknown-type arm.
		switch base := typ &^ FrameTraceFlag; base {
		case FramePublish, FramePublishAsync:
			var err error
			if traceID, f.Payload, err = SplitTracedPayload(f.Payload); err != nil {
				return ss.fail(err)
			}
			typ = base
		}
	}
	switch typ {
	case FramePing:
		return ss.writeFrame(FramePong, nil) == nil
	case FrameSubscribe:
		t0 := time.Now()
		id, err := ss.h.Subscribe(string(f.Payload))
		werr := ss.reply(err, id)
		ss.opt.SubLat.Observe(time.Since(t0).Seconds())
		if err == nil {
			ss.nsubs++
		}
		return werr == nil
	case FrameSubscribeDurable:
		t0 := time.Now()
		name, query, err := ParseSubscribeDurablePayload(f.Payload)
		var id, resume uint64
		if err == nil {
			id, resume, err = ss.h.SubscribeDurable(name, query)
		}
		werr := ss.reply(err, id, resume)
		ss.opt.SubLat.Observe(time.Since(t0).Seconds())
		if err == nil {
			ss.nsubs++
		}
		return werr == nil
	case FrameUnsubscribe:
		t0 := time.Now()
		id, err := ParseUint64(f.Payload)
		if err == nil {
			err = ss.h.Unsubscribe(id)
		}
		werr := ss.reply(err, id)
		ss.opt.UnsubLat.Observe(time.Since(t0).Seconds())
		if err == nil {
			ss.nsubs--
		}
		return werr == nil
	case FrameAck:
		off, err := ParseUint64(f.Payload)
		if err != nil {
			// There is no ack response slot, so a malformed ack can only be
			// reported by dropping the connection.
			return ss.fail(err)
		}
		ss.h.Ack(off)
		return true
	case FramePublish:
		// A blocking publish is a pipelined one with a window of one: staged,
		// then published inline.
		staged, err := ss.h.StagePublish(f.Payload)
		var n int
		if err == nil {
			n, err = ss.h.Publish(f.Payload, traceID, staged)
		}
		return ss.reply(err, uint64(n)) == nil
	case FramePublishAsync:
		seq, doc, err := ParsePublishAsyncPayload(f.Payload)
		if err != nil {
			// A malformed pipelined publish desynchronizes the ack sequence.
			return ss.fail(err)
		}
		ss.publishAsync(seq, doc, traceID)
		return true
	default:
		// An unknown frame type means the peer speaks a different protocol
		// revision (gate↔node version skew) or is desynchronized; either way
		// subsequent frames are untrustworthy. Name the violation in a
		// terminal PROTO_ERR frame, then close.
		ss.writeFrame(FrameProtoErr, []byte(fmt.Sprintf("%s: unknown frame type 0x%02x", ss.opt.ErrPrefix, f.Type)))
		return false
	}
}

// fail reports a frame the session cannot go on after and ends it.
func (ss *Session) fail(err error) bool {
	ss.writeFrame(FrameErr, []byte(err.Error()))
	return false
}

// reply writes Err(err), or OK carrying vals.
func (ss *Session) reply(err error, vals ...uint64) error {
	if err != nil {
		return ss.writeFrame(FrameErr, []byte(err.Error()))
	}
	var payload []byte
	for _, v := range vals {
		payload = AppendUint64(payload, v)
	}
	return ss.writeFrame(FrameOK, payload)
}

// write is the one place a session writes to its connection: under the
// writer lock and the write deadline, frames puts whole frames into the
// buffered writer, which is then flushed if asked. A nil frames only flushes.
// Unflushed frames go out with the next flush, or when the 64KB buffer fills.
func (ss *Session) write(flush bool, frames func(w *bufio.Writer) error) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	if t := ss.opt.WriteTimeout; t > 0 {
		ss.nc.SetWriteDeadline(time.Now().Add(t))
	}
	if frames != nil {
		if err := frames(ss.bw); err != nil {
			return err
		}
	}
	if !flush {
		return nil
	}
	return ss.bw.Flush()
}

func (ss *Session) writeFrame(typ byte, payload []byte) error {
	return ss.write(true, func(w *bufio.Writer) error { return WriteFrame(w, typ, payload) })
}

// WriteDeliver writes one Deliver frame — or, for typ FrameDeliverAt, a
// DeliverAt frame at offset — straight into the buffered writer (see
// writeDeliverFrame). With flush false the caller coalesces a burst of
// frames under one Flush.
func (ss *Session) WriteDeliver(typ byte, offset uint64, filters []uint64, doc []byte, traceID uint64, flush bool) error {
	return ss.write(flush, func(w *bufio.Writer) error {
		return writeDeliverFrame(w, typ, offset, filters, doc, traceID)
	})
}

// Flush sends the frames WriteDeliver has staged.
func (ss *Session) Flush() error { return ss.write(true, nil) }

// asyncJob is one staged PUBLISH_ASYNC on its way to a worker.
type asyncJob struct {
	seq     uint64
	doc     []byte
	traceID uint64
	staged  PendingAppend
}

// publishAsync runs on the read loop: it takes a window slot, lets the
// handler stage the document in frame order, and hands the publish and its
// ack to a worker, so the read loop is already parsing the next frame. (On
// the broker that decoupling is what feeds multi-record group-commit
// batches: without it each publish would seal a batch of one.)
//
// Workers persist for the session. An idle one takes the job; when none is,
// a new one starts, so a worker waiting on a group commit never delays the
// next document's filtering. The window bounds the jobs in flight, so at
// most Window workers ever start.
func (ss *Session) publishAsync(seq uint64, doc []byte, traceID uint64) {
	if ss.acks == nil {
		ss.sem = make(chan struct{}, ss.opt.Window)
		ss.jobs = make(chan asyncJob)
		ss.acks = make(chan PubAck, ss.opt.Window)
		ss.ackWG.Add(1)
		go ss.ackLoop()
	}
	ss.sem <- struct{}{} // in-flight window: blocks the read loop when full
	staged, err := ss.h.StagePublish(doc)
	if err != nil {
		<-ss.sem
		ss.acks <- PubAck{Seq: seq, Err: err.Error()}
		return
	}
	j := asyncJob{seq: seq, doc: doc, traceID: traceID, staged: staged}
	select {
	case ss.jobs <- j:
		return
	default:
	}
	if ss.workers < ss.opt.Window {
		ss.workers++
		ss.wg.Add(1)
		go ss.worker(j)
		return
	}
	// All Window workers exist and at most Window-1 other publishes hold a
	// slot, so one worker has finished its job and is about to park.
	ss.jobs <- j
}

// worker runs publishes until StopAsync closes the job channel. It queues a
// publish's ack before freeing its window slot, so a stalled ack writer
// stalls the window rather than growing a backlog.
func (ss *Session) worker(j asyncJob) {
	defer ss.wg.Done()
	for ok := true; ok; j, ok = <-ss.jobs {
		n, err := ss.h.Publish(j.doc, j.traceID, j.staged)
		ack := PubAck{Seq: j.seq, Matches: uint64(n)}
		if err != nil {
			ack.Err = err.Error()
		}
		ss.acks <- ack
		<-ss.sem
	}
}

// ackLoop is the per-connection ack writer: it blocks for one outcome, then
// drains everything else already queued and writes a single PubAcks frame.
// On a write error the connection is closed but the loop keeps draining so
// publish workers never block on the acks channel.
func (ss *Session) ackLoop() {
	defer ss.ackWG.Done()
	var batch []PubAck
	var buf []byte
	dead := false
	for ack := range ss.acks {
		batch = append(batch[:0], ack)
	fill:
		for len(batch) < maxPubAckBatch {
			select {
			case more, ok := <-ss.acks:
				if !ok {
					break fill
				}
				batch = append(batch, more)
			default:
				break fill
			}
		}
		if dead {
			continue
		}
		buf = AppendPubAcksPayload(buf[:0], batch)
		if ss.writeFrame(FramePubAcks, buf) != nil {
			dead = true
			ss.Close()
		}
	}
}

// StopAsync waits out in-flight pipelined publishes and stops the workers
// and the ack writer. Call it after Serve has returned, so no new publish
// can arrive.
func (ss *Session) StopAsync() {
	if ss.acks == nil {
		return
	}
	close(ss.jobs)
	ss.wg.Wait()
	close(ss.acks)
	ss.ackWG.Wait()
}
