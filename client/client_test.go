package client

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"repro/server"
)

// countingConn counts the Write calls made on a connection and keeps the
// bytes of the last one.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	last   []byte
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
