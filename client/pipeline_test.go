package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/server"
)

// fakeBroker accepts one connection and hands its frames to serve; the
// connection closes when serve returns.
func fakeBroker(t *testing.T, serve func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		serve(nc)
	}()
	return ln.Addr().String()
}

// readPublishes reads n PUBLISH_ASYNC frames and returns their sequence
// numbers.
func readPublishes(nc net.Conn, n int) ([]uint64, error) {
	seqs := make([]uint64, 0, n)
	for len(seqs) < n {
		f, err := server.ReadFrame(nc, 1<<20)
		if err != nil {
			return seqs, err
		}
		seq, _, err := server.ParsePublishAsyncPayload(f.Payload)
		if err != nil {
			return seqs, err
		}
		seqs = append(seqs, seq)
	}
	return seqs, nil
}

// settled counts how often each sequence number's outcome was reported.
type settled struct {
	mu   sync.Mutex
	runs map[uint64]int
	errs map[uint64]error
	hits map[uint64]int
}

func newSettled() *settled {
	return &settled{runs: map[uint64]int{}, errs: map[uint64]error{}, hits: map[uint64]int{}}
}

func (s *settled) note(r PublishResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs[r.Seq]++
	s.errs[r.Seq] = r.Err
	s.hits[r.Seq] = r.Matches
}

// TestPipelineSettlesInFlightOnConnectionLoss: a broker that reads N
// pipelined documents and drops the connection leaves each of them settled
// exactly once with the connection's error — per-document completions and
// onResult (for plain Publish) alike — and Close returns that error. A
// document submitted afterwards is refused and never reaches a completion.
func TestPipelineSettlesInFlightOnConnectionLoss(t *testing.T) {
	const n = 6
	read := make(chan struct{})
	addr := fakeBroker(t, func(nc net.Conn) {
		readPublishes(nc, n)
		close(read)
	})
	c, err := Dial(addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	onResult, done := newSettled(), newSettled()
	p, err := c.PublishPipelined(16, onResult.note)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("<a/>")
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			_, err = p.Publish(doc)
		} else {
			_, err = p.Submit(doc, uint64(i), done.note)
		}
		if err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
	}
	<-read
	closeErr := p.Close()
	if closeErr == nil || !strings.Contains(closeErr.Error(), "connection closed") {
		t.Fatalf("Close = %v, want the connection's error", closeErr)
	}
	for seq := uint64(1); seq <= n; seq++ {
		got, other := onResult, done
		if seq%2 == 0 {
			got, other = done, onResult
		}
		if got.runs[seq] != 1 || other.runs[seq] != 0 {
			t.Errorf("seq %d settled %d times on its completion and %d on the other, want once and never",
				seq, got.runs[seq], other.runs[seq])
		}
		if got.errs[seq] == nil {
			t.Errorf("seq %d settled without an error", seq)
		}
	}
	if _, err := p.Submit(doc, 0, done.note); err == nil {
		t.Fatal("Submit after the connection ended was accepted")
	}
	if len(done.runs) != n/2 {
		t.Fatalf("a refused document reached its completion: %v", done.runs)
	}
}

// failConn is a sinkConn whose writes fail.
type failConn struct{ sinkConn }

var errWrite = errors.New("injected write failure")

func (f *failConn) Write([]byte) (int, error) { return 0, errWrite }

// TestPipelineWriteFailureSettles: a document whose frame cannot be written
// is settled once, with the write error, through the connection's end,
// and Close reports it.
func TestPipelineWriteFailureSettles(t *testing.T) {
	c := newClient(&failConn{sinkConn{closed: make(chan struct{})}}, Options{})
	defer c.Close()
	p, err := c.PublishPipelined(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := newSettled()
	if _, err := p.Submit([]byte("<a/>"), 0, got.note); err != nil {
		t.Fatalf("Submit refused the document: %v", err)
	}
	if err := p.Close(); !errors.Is(err, errWrite) {
		t.Fatalf("Close = %v, want the write error", err)
	}
	if got.runs[1] != 1 || !errors.Is(got.errs[1], errWrite) {
		t.Fatalf("document settled %d times with %v, want once with the write error", got.runs[1], got.errs[1])
	}
}

// TestPipelineMatchesAcksOutOfOrder: acks that arrive out of submission
// order, and one held back while the sequence numbers wrap the registry
// many times over, each reach their own document's completion.
func TestPipelineMatchesAcksOutOfOrder(t *testing.T) {
	const total = 200
	addr := fakeBroker(t, func(nc net.Conn) {
		var held []server.PubAck
		for seen := 0; seen < total; {
			seqs, err := readPublishes(nc, 1)
			if err != nil {
				return
			}
			seen++
			seq := seqs[0]
			held = append(held, server.PubAck{Seq: seq, Matches: seq * 10})
			if seq == 1 || seq%2 == 0 && seen < total {
				continue // hold seq 1 to the end, and each even one for its successor
			}
			var acks []server.PubAck
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].Seq != 1 || seen == total {
					acks = append(acks, held[i])
				}
			}
			held = held[:0]
			if seen < total {
				held = append(held, server.PubAck{Seq: 1, Matches: 10})
			}
			server.WriteFrame(nc, server.FramePubAcks, server.AppendPubAcksPayload(nil, acks))
		}
		server.ReadFrame(nc, 1<<20) // wait for the client to leave
	})
	c, err := Dial(addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	onResult, done := newSettled(), newSettled()
	p, err := c.PublishPipelined(4, onResult.note)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if i%3 == 0 {
			_, err = p.Publish([]byte("<a/>"))
		} else {
			_, err = p.Submit([]byte("<a/>"), 0, done.note)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= total; seq++ {
		got := done
		if (seq-1)%3 == 0 {
			got = onResult
		}
		if got.runs[seq] != 1 || got.errs[seq] != nil || got.hits[seq] != int(seq*10) {
			t.Errorf("seq %d: %d settles, err %v, %d matches; want 1, nil, %d",
				seq, got.runs[seq], got.errs[seq], got.hits[seq], seq*10)
		}
	}
}

// TestPipelineRegistry: random registrations and removals, never more than
// the window at once, agree with a map.
func TestPipelineRegistry(t *testing.T) {
	const window = 5
	p := &Pipeline{slots: make([]inflight, 16)}
	rng := rand.New(rand.NewSource(1))
	want := map[uint64]bool{}
	var seq uint64
	for step := 0; step < 20000; step++ {
		if len(want) < window && rng.Intn(2) == 0 {
			seq++
			p.put(inflight{seq: seq})
			want[seq] = true
			continue
		}
		probe := seq - uint64(rng.Intn(3*window))
		_, ok := p.take(probe)
		if ok != want[probe] {
			t.Fatalf("step %d: take(%d) = %v, want %v", step, probe, ok, want[probe])
		}
		delete(want, probe)
	}
}

// TestPublishStreamPipelined: the stream's documents are counted, a
// malformed document's parse error is returned, and a broker that drops the
// connection mid-stream makes the call fail.
func TestPublishStreamPipelined(t *testing.T) {
	srv, err := server.New(server.Config{Policy: server.Block})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr(), Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n, err := c.PublishStreamPipelined(strings.NewReader("<a/><a><b/></a>\n<c>x</c>"), 2)
	if n != 3 || err != nil {
		t.Fatalf("well-formed stream: %d documents, %v; want 3, nil", n, err)
	}
	n, err = c.PublishStreamPipelined(strings.NewReader("<a/><a><b></a>"), 2)
	if n != 1 || err == nil {
		t.Fatalf("malformed stream: %d documents, %v; want 1 and the parse error", n, err)
	}

	addr := fakeBroker(t, func(nc net.Conn) { readPublishes(nc, 2) })
	dropped, err := Dial(addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer dropped.Close()
	stream := strings.Repeat("<a/>", 50)
	if n, err := dropped.PublishStreamPipelined(strings.NewReader(stream), 64); err == nil {
		t.Fatalf("dropped connection: %d documents and no error", n)
	}
}

// heldFrames reports how many pipelined frames the client is holding.
func heldFrames(c *Client) int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.held
}

// TestPipelineWindowsSettleOnce: against the real broker, with windows small
// enough that no frame is held (1 and 2), one that holds one frame at a time
// (3) and the default (64), every accepted document settles exactly once,
// with its own match count, and before Close: the frames still held when
// the last Submit returns go out on the acks of the written ones.
func TestPipelineWindowsSettleOnce(t *testing.T) {
	const n = 1500
	srv, err := server.New(server.Config{Policy: server.Block})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sub, err := Dial(srv.Addr(), Options{Timeout: 10 * time.Second, OnDeliver: func(Delivery) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe("/a[b > 5]"); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 2, 3, 64} {
		t.Run(fmt.Sprint("window", window), func(t *testing.T) {
			c, err := Dial(srv.Addr(), Options{Timeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			onResult, done := newSettled(), newSettled()
			var all sync.WaitGroup
			all.Add(n)
			p, err := c.PublishPipelined(window, func(r PublishResult) { onResult.note(r); all.Done() })
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				doc := []byte(fmt.Sprintf("<a><b>%d</b></a>", i%10))
				if i%2 == 0 {
					_, err = p.Publish(doc)
				} else {
					_, err = p.Submit(doc, 0, func(r PublishResult) { done.note(r); all.Done() })
				}
				if err != nil {
					t.Fatalf("document %d: %v", i, err)
				}
			}
			settled := make(chan struct{})
			go func() { all.Wait(); close(settled) }()
			select {
			case <-settled:
			case <-time.After(10 * time.Second):
				t.Fatalf("documents left unsettled with the pipeline open: %d frames held", heldFrames(c))
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			for seq := uint64(1); seq <= n; seq++ {
				got, other := onResult, done
				if seq%2 == 0 {
					got, other = done, onResult
				}
				want := 0
				if (seq-1)%10 > 5 {
					want = 1
				}
				if got.runs[seq] != 1 || other.runs[seq] != 0 || got.errs[seq] != nil || got.hits[seq] != want {
					t.Fatalf("seq %d: %d settles (%d on the other completion), err %v, %d matches; want 1, 0, nil, %d",
						seq, got.runs[seq], other.runs[seq], got.errs[seq], got.hits[seq], want)
				}
			}
		})
	}
}

// TestPipelineCloseFlushesHeld: a frame held behind half a window of unacked
// ones goes out when the pipeline closes, and its ack settles it.
func TestPipelineCloseFlushesHeld(t *testing.T) {
	const window = 4
	addr := fakeBroker(t, func(nc net.Conn) {
		seqs, err := readPublishes(nc, 3)
		if err != nil {
			return
		}
		var acks []server.PubAck
		for _, s := range seqs {
			acks = append(acks, server.PubAck{Seq: s, Matches: s})
		}
		server.WriteFrame(nc, server.FramePubAcks, server.AppendPubAcksPayload(nil, acks))
		server.ReadFrame(nc, 1<<20) // wait for the client to leave
	})
	c, err := Dial(addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.PublishPipelined(window, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := newSettled()
	for i := 0; i < 3; i++ {
		if _, err := p.Submit([]byte("<a/>"), 0, got.note); err != nil {
			t.Fatal(err)
		}
	}
	if h := heldFrames(c); h != 1 {
		t.Fatalf("%d frames held with 2 of window %d unacked, want 1", h, window)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if got.runs[seq] != 1 || got.errs[seq] != nil || got.hits[seq] != int(seq) {
			t.Errorf("seq %d: %d settles, err %v, %d matches; want 1, nil, %d", seq, got.runs[seq], got.errs[seq], got.hits[seq], seq)
		}
	}
}

// TestPipelineSettlesHeldOnConnectionLoss: when the connection ends while
// frames are held, the held documents settle exactly once with the
// connection's error, like the written ones.
func TestPipelineSettlesHeldOnConnectionLoss(t *testing.T) {
	const window, written, n = 8, 4, 6
	drop := make(chan struct{})
	addr := fakeBroker(t, func(nc net.Conn) {
		readPublishes(nc, written)
		<-drop
	})
	c, err := Dial(addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.PublishPipelined(window, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := newSettled()
	for i := 0; i < n; i++ {
		if _, err := p.Submit([]byte("<a/>"), 0, got.note); err != nil {
			t.Fatal(err)
		}
	}
	if h := heldFrames(c); h != n-written {
		t.Fatalf("%d frames held with %d of window %d unacked, want %d", h, written, window, n-written)
	}
	close(drop)
	closeErr := p.Close()
	if closeErr == nil || !strings.Contains(closeErr.Error(), "connection closed") {
		t.Fatalf("Close = %v, want the connection's error", closeErr)
	}
	for seq := uint64(1); seq <= n; seq++ {
		if got.runs[seq] != 1 || got.errs[seq] == nil {
			t.Errorf("seq %d settled %d times with %v, want once with the connection's error", seq, got.runs[seq], got.errs[seq])
		}
	}
}

// TestPipelineHeldFramesPrecedeOthers: an ACK or a SUBSCRIBE written while
// publishes are held reaches the wire after them, so frame order is call
// order.
func TestPipelineHeldFramesPrecedeOthers(t *testing.T) {
	const window = 4
	frames := make(chan []string, 1)
	addr := fakeBroker(t, func(nc net.Conn) {
		var seen []string
		var acks []server.PubAck
		defer func() { frames <- seen }()
		for {
			f, err := server.ReadFrame(nc, 1<<20)
			if err != nil {
				return
			}
			switch f.Type {
			case server.FramePublishAsync:
				seq, _, _ := server.ParsePublishAsyncPayload(f.Payload)
				seen = append(seen, fmt.Sprint("P", seq))
				acks = append(acks, server.PubAck{Seq: seq})
			case server.FrameAck:
				off, _ := server.ParseUint64(f.Payload)
				seen = append(seen, fmt.Sprint("A", off))
			case server.FrameSubscribe:
				seen = append(seen, "S")
				server.WriteFrame(nc, server.FrameOK, server.AppendUint64(nil, 1))
				server.WriteFrame(nc, server.FramePubAcks, server.AppendPubAcksPayload(nil, acks))
			}
		}
	})
	c, err := Dial(addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.PublishPipelined(window, nil)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(held int) {
		t.Helper()
		if _, err := p.Publish([]byte("<a/>")); err != nil {
			t.Fatal(err)
		}
		if h := heldFrames(c); h != held {
			t.Fatalf("%d frames held, want %d", h, held)
		}
	}
	submit(0)
	submit(0)
	submit(1) // two of four unacked: held
	if err := c.Ack(7); err != nil {
		t.Fatal(err)
	}
	submit(1) // three unacked, one held
	if _, err := c.Subscribe("/a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	want := "[P1 P2 P3 A7 P4 S]"
	if got := fmt.Sprint(<-frames); got != want {
		t.Fatalf("the broker read %s, want %s", got, want)
	}
}
