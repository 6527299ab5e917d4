// Package server is the production serving subsystem for the XPush engine:
// a TCP broker that holds the subscription table (10⁴–10⁵ XPath filters, the
// paper's message-routing application from Sec. 1) and forwards every
// published XML document to the subscribers whose filters match.
//
// The wire protocol is length-prefixed framing over one TCP connection per
// peer, carrying a control plane (SUBSCRIBE / UNSUBSCRIBE / PING) and a
// data plane (PUBLISH, asynchronous DELIVER notifications). Subscription
// changes are applied behind a copy-on-write engine swap, so publishers
// never observe a half-updated workload. Per-subscriber delivery runs
// through bounded queues with a selectable backpressure policy; every drop
// is counted. The server drains gracefully: on Shutdown it stops accepting,
// rejects new publishes, flips /healthz to not-ready, and flushes every
// delivery queue before closing connections.
//
// Use the repro/client package to talk to a Server; cmd/xpushserve wraps
// one in a binary.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Frame layout: a 4-byte big-endian length n (covering the type byte and
// the payload, so n >= 1), one type byte, and n-1 payload bytes.
//
//	+--------+--------+----------------+
//	| u32 BE | type   | payload        |
//	| length | 1 byte | length-1 bytes |
//	+--------+--------+----------------+
//
// Frame types and payloads:
//
//	client -> server
//	  Subscribe         XPath filter text
//	  Unsubscribe       8-byte big-endian filter id
//	  Ping              empty
//	  Publish           one XML document
//	  SubscribeDurable  u32 BE name length, the subscriber name, then the
//	                    XPath filter text (requires a WAL-backed server)
//	  Ack               8-byte big-endian log offset: every document at or
//	                    below it is processed; the persisted cursor advances
//	                    to offset+1. No response frame is sent (acks are
//	                    fire-and-forget so they can interleave with the
//	                    client's request/response round-trips).
//	  PublishAsync      8-byte big-endian client-chosen sequence number,
//	                    then one XML document. No per-frame response: the
//	                    server answers with batched PubAcks frames, so a
//	                    client can stream documents windowed by sequence
//	                    instead of paying a round trip each.
//
//	Publish and PublishAsync additionally reserve bit 6 of the type byte
//	(FrameTraceFlag): when set, an 8-byte big-endian trace id precedes the
//	normal payload, propagating a trace begun upstream (at an xpushgate or
//	a tracing publisher) into this hop — the same reserved-bit trick the
//	Deliver frame plays with bit 31 of its count word. Untraced frames keep
//	the plain type byte and are byte-identical to the pre-flag encoding.
//	server -> client
//	  OK           8-byte big-endian value: the assigned filter id
//	               (Subscribe), the echoed id (Unsubscribe), or the
//	               matched-filter count (Publish). SubscribeDurable replies
//	               with 16 bytes: the filter id then the resume offset the
//	               replay starts from.
//	  Err          UTF-8 error message
//	  Pong         empty
//	  Deliver      u32 BE matched-filter count n, n 8-byte BE filter ids,
//	               then the document bytes. Bit 31 of the count marks a
//	               traced delivery: an 8-byte BE trace id sits between the
//	               ids and the document (the count itself is the low 31
//	               bits), letting a client correlate a delivery with the
//	               server's /debug/traces output.
//	  DeliverAt    8-byte BE log offset, then a Deliver payload — the
//	               durable delivery stream; the offset is what Ack echoes
//	  PubAcks      u32 BE entry count, then per entry: 8-byte BE sequence
//	               (echoed from PublishAsync), one status byte, and — for
//	               status 0 — an 8-byte BE matched-filter count, or — for
//	               status 1 — a u32 BE length and that many bytes of UTF-8
//	               error message. Entries for consecutive publishes are
//	               coalesced into one frame.
const (
	FrameSubscribe        byte = 0x01
	FrameUnsubscribe      byte = 0x02
	FramePing             byte = 0x03
	FramePublish          byte = 0x04
	FrameSubscribeDurable byte = 0x05
	FrameAck              byte = 0x06
	FramePublishAsync     byte = 0x07

	// FrameTraceFlag is bit 6 of a request's type byte. OR'd into
	// FramePublish or FramePublishAsync it marks a traced publish: the
	// payload starts with an 8-byte big-endian trace id (see
	// AppendTracedPayload / SplitTracedPayload), followed by the frame's
	// normal payload. Servers receiving a traced publish adopt the carried
	// id so the document's spans across processes stitch into one trace.
	FrameTraceFlag byte = 0x40

	FrameOK        byte = 0x81
	FrameErr       byte = 0x82
	FramePong      byte = 0x83
	FrameDeliver   byte = 0x84
	FrameDeliverAt byte = 0x85
	FramePubAcks   byte = 0x86

	// FrameProtoErr is a terminal protocol-level error: the payload is a
	// UTF-8 reason string and the sender closes the connection immediately
	// after writing it. Unlike FrameErr (a per-request failure on a healthy
	// connection), FrameProtoErr means the peer could not keep speaking the
	// protocol at all — e.g. an unknown frame type from version skew between
	// an xpushgate and an older node — so the violation is diagnosable
	// instead of surfacing as a bare connection drop.
	FrameProtoErr byte = 0x8F
)

// Frame is one decoded protocol frame.
type Frame struct {
	Type    byte
	Payload []byte
}

// ErrFrameTooLarge reports a frame whose declared payload exceeds the
// reader's limit. Its 5-byte header (length and type) has been consumed from
// the stream; its payload has not.
type ErrFrameTooLarge struct {
	Size, Limit int
}

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("server: frame payload %d bytes exceeds limit %d", e.Size, e.Limit)
}

// ReadFrame reads one frame from r: the length and type in one read, then
// the payload into a slice of its own. A frame whose payload would exceed
// maxPayload returns *ErrFrameTooLarge without consuming the payload, so
// the caller can decide between discarding and closing. On a *bufio.Reader
// the header is read in place, so the payload is the frame's only
// allocation.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	return ReadFrameInto(r, nil, maxPayload)
}

// ReadFrameInto is ReadFrame reading the payload into buf when it has the
// capacity, and into a new slice when it has not: the frame's Payload
// aliases buf or that slice. A reader that is done with every frame before
// it reads the next passes the last frame's Payload back in as buf, and so
// reads frame after frame without allocating.
func ReadFrameInto(r io.Reader, buf []byte, maxPayload int) (Frame, error) {
	n, typ, err := readFrameHeader(r)
	if err != nil {
		return Frame{}, err
	}
	if n == 0 {
		return Frame{}, fmt.Errorf("server: zero-length frame")
	}
	if int64(n-1) > int64(maxPayload) {
		return Frame{}, &ErrFrameTooLarge{Size: int(n - 1), Limit: maxPayload}
	}
	if uint32(cap(buf)) < n-1 {
		buf = make([]byte, n-1)
	}
	payload := buf[:n-1]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, err
	}
	return Frame{Type: typ, Payload: payload}, nil
}

// readFrameHeader reads a frame's length and type, with io.ReadFull's
// errors. A *bufio.Reader's header is peeked and discarded where it lies;
// any other reader's is read into an array that escapes to the heap.
func readFrameHeader(r io.Reader) (n uint32, typ byte, err error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		var hdr [5]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, 0, err
		}
		return binary.BigEndian.Uint32(hdr[:4]), hdr[4], nil
	}
	hdr, err := br.Peek(5)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		br.Discard(len(hdr))
		return 0, 0, err
	}
	n, typ = binary.BigEndian.Uint32(hdr[:4]), hdr[4]
	br.Discard(5)
	return n, typ, nil
}

// WriteFrame writes one frame. Callers interleaving writers on a shared
// connection must serialize WriteFrame calls themselves. On a *bufio.Writer
// the header is built in the writer's free space, as writeDeliverFrame's is.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if bw, ok := w.(*bufio.Writer); ok {
		b := binary.BigEndian.AppendUint32(bw.AvailableBuffer(), uint32(1+len(payload)))
		if _, err := bw.Write(append(b, typ)); err != nil {
			return err
		}
	} else {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
		hdr[4] = typ
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// AppendUint64 encodes an 8-byte big-endian value (the OK / Unsubscribe
// payload).
func AppendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// ParseUint64 decodes an 8-byte big-endian payload.
func ParseUint64(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("server: expected 8-byte payload, got %d", len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// deliverTraceFlag is bit 31 of the Deliver count word: when set, an
// 8-byte big-endian trace id follows the filter ids. The low 31 bits stay
// the filter count, so untraced payloads are byte-identical to the pre-flag
// encoding.
const deliverTraceFlag = uint32(1) << 31

// AppendDeliverPayload encodes a Deliver payload: the subscriber's matched
// filter ids followed by the document.
func AppendDeliverPayload(dst []byte, filters []uint64, doc []byte) []byte {
	return AppendDeliverPayloadTrace(dst, filters, doc, 0)
}

// AppendDeliverPayloadTrace is AppendDeliverPayload with a trace id. A zero
// traceID emits the plain (flag-free) encoding.
func AppendDeliverPayloadTrace(dst []byte, filters []uint64, doc []byte, traceID uint64) []byte {
	var b [4]byte
	n := uint32(len(filters))
	if traceID != 0 {
		n |= deliverTraceFlag
	}
	binary.BigEndian.PutUint32(b[:], n)
	dst = append(dst, b[:]...)
	for _, f := range filters {
		dst = AppendUint64(dst, f)
	}
	if traceID != 0 {
		dst = AppendUint64(dst, traceID)
	}
	return append(dst, doc...)
}

// ParseDeliverPayload decodes a Deliver payload, discarding a trace id if
// present. The returned slices alias p.
func ParseDeliverPayload(p []byte) (filters []uint64, doc []byte, err error) {
	filters, doc, _, err = AppendDecodeDeliver(nil, p)
	return filters, doc, err
}

// AppendDecodeDeliver decodes a Deliver payload including its optional
// trace id (0 when the delivery is untraced), appending its filter ids to
// dst, so a reader that decodes frame after frame can reuse one slice. doc
// aliases p.
func AppendDecodeDeliver(dst []uint64, p []byte) (filters []uint64, doc []byte, traceID uint64, err error) {
	if len(p) < 4 {
		return nil, nil, 0, fmt.Errorf("server: short deliver payload")
	}
	n := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	traced := n&deliverTraceFlag != 0
	n &^= deliverTraceFlag
	need := int64(n) * 8
	if traced {
		need += 8
	}
	if int64(len(p)) < need {
		return nil, nil, 0, fmt.Errorf("server: deliver payload truncated (%d ids declared)", n)
	}
	filters = slices.Grow(dst, int(n))
	for i := 0; i < int(n); i++ {
		filters = append(filters, binary.BigEndian.Uint64(p[i*8:]))
	}
	p = p[n*8:]
	if traced {
		traceID = binary.BigEndian.Uint64(p[:8])
		p = p[8:]
	}
	return filters, p, traceID, nil
}

// AppendSubscribeDurablePayload encodes a SubscribeDurable payload: the
// subscriber's durable name (its cursor identity) and the XPath filter.
func AppendSubscribeDurablePayload(dst []byte, name, xpath string) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(len(name)))
	dst = append(dst, b[:]...)
	dst = append(dst, name...)
	return append(dst, xpath...)
}

// ParseSubscribeDurablePayload decodes a SubscribeDurable payload.
func ParseSubscribeDurablePayload(p []byte) (name, xpath string, err error) {
	if len(p) < 4 {
		return "", "", fmt.Errorf("server: short subscribe-durable payload")
	}
	n := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	if int64(len(p)) < int64(n) {
		return "", "", fmt.Errorf("server: subscribe-durable payload truncated (%d-byte name declared)", n)
	}
	return string(p[:n]), string(p[n:]), nil
}

// AppendDeliverAtPayload encodes a DeliverAt payload: the record's log
// offset followed by a Deliver payload.
func AppendDeliverAtPayload(dst []byte, offset uint64, filters []uint64, doc []byte) []byte {
	dst = AppendUint64(dst, offset)
	return AppendDeliverPayload(dst, filters, doc)
}

// AppendDeliverAtPayloadTrace is AppendDeliverAtPayload with a trace id
// (see AppendDeliverPayloadTrace).
func AppendDeliverAtPayloadTrace(dst []byte, offset uint64, filters []uint64, doc []byte, traceID uint64) []byte {
	dst = AppendUint64(dst, offset)
	return AppendDeliverPayloadTrace(dst, filters, doc, traceID)
}

// ParseDeliverAtPayload decodes a DeliverAt payload, discarding a trace id
// if present. The returned slices alias p.
func ParseDeliverAtPayload(p []byte) (offset uint64, filters []uint64, doc []byte, err error) {
	offset, filters, doc, _, err = AppendDecodeDeliverAt(nil, p)
	return offset, filters, doc, err
}

// AppendDecodeDeliverAt is AppendDecodeDeliver for a DeliverAt payload.
func AppendDecodeDeliverAt(dst []uint64, p []byte) (offset uint64, filters []uint64, doc []byte, traceID uint64, err error) {
	if len(p) < 8 {
		return 0, nil, nil, 0, fmt.Errorf("server: short deliver-at payload")
	}
	offset = binary.BigEndian.Uint64(p[:8])
	filters, doc, traceID, err = AppendDecodeDeliver(dst, p[8:])
	return offset, filters, doc, traceID, err
}

// writeDeliverFrame writes one whole Deliver frame — or, for typ
// FrameDeliverAt, a DeliverAt frame at offset — into w: the bytes of
// WriteFrame(w, typ, Append{Deliver,DeliverAt}PayloadTrace(...)), without
// assembling the payload first. Everything ahead of the document is built in
// w's own free space; the document is written from where it lies.
func writeDeliverFrame(w *bufio.Writer, typ byte, offset uint64, filters []uint64, doc []byte, traceID uint64) error {
	n := 1 + 4 + 8*len(filters) + len(doc)
	count := uint32(len(filters))
	if typ == FrameDeliverAt {
		n += 8
	}
	if traceID != 0 {
		n += 8
		count |= deliverTraceFlag
	}
	// Appending past the free space reallocates, and Write takes either.
	b := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(n))
	b = append(b, typ)
	if typ == FrameDeliverAt {
		b = binary.BigEndian.AppendUint64(b, offset)
	}
	b = binary.BigEndian.AppendUint32(b, count)
	for _, f := range filters {
		b = binary.BigEndian.AppendUint64(b, f)
	}
	if traceID != 0 {
		b = binary.BigEndian.AppendUint64(b, traceID)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err := w.Write(doc)
	return err
}

// AppendPublishAsyncPayload encodes a PublishAsync payload: the client's
// sequence number followed by the document.
func AppendPublishAsyncPayload(dst []byte, seq uint64, doc []byte) []byte {
	dst = AppendUint64(dst, seq)
	return append(dst, doc...)
}

// ParsePublishAsyncPayload decodes a PublishAsync payload. The returned doc
// aliases p.
func ParsePublishAsyncPayload(p []byte) (seq uint64, doc []byte, err error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("server: short publish-async payload")
	}
	return binary.BigEndian.Uint64(p[:8]), p[8:], nil
}

// AppendTracedPayload encodes the payload of a FrameTraceFlag-marked
// publish: the trace id carried from the upstream hop, then the frame's
// normal payload (the document for Publish, seq+document for PublishAsync).
func AppendTracedPayload(dst []byte, traceID uint64, rest []byte) []byte {
	dst = AppendUint64(dst, traceID)
	return append(dst, rest...)
}

// SplitTracedPayload strips the 8-byte trace id off a FrameTraceFlag-marked
// payload. The returned rest aliases p.
func SplitTracedPayload(p []byte) (traceID uint64, rest []byte, err error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("server: short traced payload")
	}
	return binary.BigEndian.Uint64(p[:8]), p[8:], nil
}

// PubAck is one entry of a PubAcks frame: the outcome of the PublishAsync
// carrying Seq. Err == "" means the publish was accepted and matched
// Matches filters.
type PubAck struct {
	Seq     uint64
	Matches uint64
	Err     string
}

// AppendPubAcksPayload encodes a PubAcks payload.
func AppendPubAcksPayload(dst []byte, acks []PubAck) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(len(acks)))
	dst = append(dst, b[:]...)
	for _, a := range acks {
		dst = AppendUint64(dst, a.Seq)
		if a.Err == "" {
			dst = append(dst, 0)
			dst = AppendUint64(dst, a.Matches)
		} else {
			dst = append(dst, 1)
			binary.BigEndian.PutUint32(b[:], uint32(len(a.Err)))
			dst = append(dst, b[:]...)
			dst = append(dst, a.Err...)
		}
	}
	return dst
}

// ParsePubAcksPayload decodes a PubAcks payload.
func ParsePubAcksPayload(p []byte) ([]PubAck, error) {
	return AppendDecodePubAcks(nil, p)
}

// AppendDecodePubAcks decodes a PubAcks payload, appending its entries to
// dst, so a reader that decodes frame after frame can reuse one slice. On
// error it returns nil.
func AppendDecodePubAcks(dst []PubAck, p []byte) ([]PubAck, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("server: short pub-acks payload")
	}
	n := binary.BigEndian.Uint32(p[:4])
	p = p[4:]
	acks := slices.Grow(dst, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		if len(p) < 9 {
			return nil, fmt.Errorf("server: pub-acks payload truncated (entry %d)", i)
		}
		a := PubAck{Seq: binary.BigEndian.Uint64(p[:8])}
		status := p[8]
		p = p[9:]
		switch status {
		case 0:
			if len(p) < 8 {
				return nil, fmt.Errorf("server: pub-acks payload truncated (entry %d)", i)
			}
			a.Matches = binary.BigEndian.Uint64(p[:8])
			p = p[8:]
		case 1:
			if len(p) < 4 {
				return nil, fmt.Errorf("server: pub-acks payload truncated (entry %d)", i)
			}
			m := binary.BigEndian.Uint32(p[:4])
			p = p[4:]
			if int64(len(p)) < int64(m) {
				return nil, fmt.Errorf("server: pub-acks payload truncated (entry %d)", i)
			}
			a.Err = string(p[:m])
			p = p[m:]
		default:
			return nil, fmt.Errorf("server: pub-acks entry %d has unknown status %d", i, status)
		}
		acks = append(acks, a)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("server: pub-acks payload has %d trailing bytes", len(p))
	}
	return acks, nil
}
