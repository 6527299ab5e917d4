package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/server"
)

// countingConn counts the Write calls made on a connection and keeps the
// bytes of the last one, and tallies the frames it reads by type.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	last   []byte
	in     frameTally
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.in.feed(b[:n])
	c.mu.Unlock()
	return n, err
}

// received reports how many frames of type typ have been read.
func (c *countingConn) received(typ byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.frames[typ]
}

// frameTally counts the frames of a byte stream by type, fed in pieces of
// any size.
type frameTally struct {
	hdr    []byte // the current frame's header, as far as it has come
	skip   int    // the current frame's payload bytes still to come
	frames [256]int
}

func (t *frameTally) feed(b []byte) {
	for len(b) > 0 {
		if t.skip > 0 {
			k := min(t.skip, len(b))
			t.skip -= k
			b = b[k:]
			continue
		}
		k := min(5-len(t.hdr), len(b))
		t.hdr, b = append(t.hdr, b[:k]...), b[k:]
		if len(t.hdr) == 5 {
			t.frames[t.hdr[4]]++
			t.skip = int(binary.BigEndian.Uint32(t.hdr)) - 1
			t.hdr = t.hdr[:0]
		}
	}
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.last = append(c.last[:0], b...)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *countingConn) snapshot() (int, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, append([]byte(nil), c.last...)
}

// frameBytes is the reference encoding of one frame.
func frameBytes(typ byte, payload []byte) []byte {
	var b bytes.Buffer
	server.WriteFrame(&b, typ, payload)
	return b.Bytes()
}

// TestOneWritePerFrame: every request goes out in a single Write on the
// connection, byte for byte the frame the codec's reference encoders build.
func TestOneWritePerFrame(t *testing.T) {
	srv, err := server.New(server.Config{Policy: server.Block})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := newClient(cc, Options{Timeout: 5 * time.Second})
	t.Cleanup(func() { c.Close() })

	doc := []byte("<a><b>1</b></a>")
	var id uint64
	var p *Pipeline
	steps := []struct {
		name   string
		do     func() error
		writes int
		want   []byte // the frame written; nil skips the byte check
	}{
		{"Subscribe", func() (err error) { id, err = c.Subscribe("/a"); return err }, 1,
			frameBytes(server.FrameSubscribe, []byte("/a"))},
		{"Publish", func() error { _, err := c.Publish(doc); return err }, 1,
			frameBytes(server.FramePublish, doc)},
		{"PublishTraced", func() error { _, err := c.PublishTraced(doc, 7); return err }, 1,
			frameBytes(server.FramePublish|server.FrameTraceFlag, server.AppendTracedPayload(nil, 7, doc))},
		{"Ack", func() error { return c.Ack(42) }, 1,
			frameBytes(server.FrameAck, server.AppendUint64(nil, 42))},
		{"Unsubscribe", func() error { return c.Unsubscribe(id) }, 1, nil},
		{"Ping", c.Ping, 1, frameBytes(server.FramePing, nil)},
		{"PublishPipelined", func() (err error) { p, err = c.PublishPipelined(8, nil); return err }, 0, nil},
		{"Pipeline.Publish", func() error { _, err := p.Publish(doc); return err }, 1,
			frameBytes(server.FramePublishAsync, server.AppendPublishAsyncPayload(nil, 1, doc))},
		{"Pipeline.PublishTraced", func() error { _, err := p.PublishTraced(doc, 9); return err }, 1,
			frameBytes(server.FramePublishAsync|server.FrameTraceFlag,
				server.AppendTracedPayload(nil, 9, server.AppendPublishAsyncPayload(nil, 2, doc)))},
	}
	for _, st := range steps {
		before, _ := cc.snapshot()
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		after, last := cc.snapshot()
		if after-before != st.writes {
			t.Errorf("%s: %d writes, want %d", st.name, after-before, st.writes)
		}
		if st.want != nil && !bytes.Equal(last, st.want) {
			t.Errorf("%s wrote\n %x\nwant\n %x", st.name, last, st.want)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishWriteBudget is the pipelined publish's counted budget: over
// loopback, with one subscriber and a window of 64, it counts the
// publisher's Write calls and the PUBACKS frames it reads per document. Each
// side clocks its writes off the other's acks (see Pipeline and
// server.Session's ack writer), so a burst of held frames goes out in one
// write and a burst of outcomes in one PUBACKS. Writing every frame reads
// 1.0 writes per document, and writing whatever outcomes are ready reads
// 0.93-0.98 PUBACKS frames.
func TestPublishWriteBudget(t *testing.T) {
	const (
		window   = 64
		warm     = 1000
		measured = 4000
		// Measured 0.21-0.44 writes and 0.06-0.10 PUBACKS frames per
		// document, 0.43-0.48 and 0.03 under -race: the count moves with
		// how far the broker trails the publisher.
		maxWrites, maxPubAcks = 0.6, 0.15
	)
	srv, err := server.New(server.Config{Policy: server.Block})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sub, err := Dial(srv.Addr(), Options{Timeout: 10 * time.Second, OnDeliver: func(Delivery) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	if _, err := sub.Subscribe("//item[qty > 1]"); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	c := newClient(cc, Options{Timeout: 10 * time.Second})
	t.Cleanup(func() { c.Close() })

	docs := make([][]byte, 16)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(`<order seq="%d">%s</order>`, i, bytes.Repeat([]byte(`<item sku="p-123"><qty>9</qty></item>`), 40+i)))
	}
	publish := func(n int) {
		p, err := c.PublishPipelined(window, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := p.Publish(docs[i%len(docs)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	publish(warm)
	w0, _ := cc.snapshot()
	a0 := cc.received(server.FramePubAcks)
	publish(measured)
	w1, _ := cc.snapshot()
	writes := float64(w1-w0) / measured
	pubAcks := float64(cc.received(server.FramePubAcks)-a0) / measured
	t.Logf("%.3f writes and %.3f PUBACKS frames per document", writes, pubAcks)
	if writes > maxWrites {
		t.Errorf("%.3f publisher writes per document, want <= %.2f", writes, maxWrites)
	}
	if pubAcks > maxPubAcks {
		t.Errorf("%.3f PUBACKS frames per document, want <= %.2f", pubAcks, maxPubAcks)
	}
}

// sinkConn swallows writes and blocks reads until closed: a peer that never
// answers, so nothing but the caller allocates.
type sinkConn struct {
	net.Conn // nil: only the methods below are used
	closed   chan struct{}
	once     sync.Once
}

func (s *sinkConn) Write(b []byte) (int, error) { return len(b), nil }
func (s *sinkConn) Read([]byte) (int, error) {
	<-s.closed
	return 0, net.ErrClosed
}
func (s *sinkConn) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// TestPipelinePublishZeroAllocs: a warm, untraced pipelined publish reuses
// the client's frame buffer and allocates nothing.
func TestPipelinePublishZeroAllocs(t *testing.T) {
	c := newClient(&sinkConn{closed: make(chan struct{})}, Options{})
	defer c.Close()
	const runs = 200
	p, err := c.PublishPipelined(runs+1, nil) // the sink never acks: no slot frees
	if err != nil {
		t.Fatal(err)
	}
	doc := bytes.Repeat([]byte("<a>x</a>"), 64)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := p.Publish(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Pipeline.Publish allocates %.1f times per document, want 0", allocs)
	}
}
