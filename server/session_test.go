package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/server"
)

// fakeHandler is a SessionHandler with no broker behind it. StagePublish
// records the staged documents in call order and fails with stageErr when it
// is set; Publish records what was staged for it and runs publish, or reports
// zero matches when publish is nil.
type fakeHandler struct {
	mu        sync.Mutex
	staged    []string
	stageErr  error
	published []server.PendingAppend
	publish   func(doc []byte) (int, error)
}

// fakePending is what fakeHandler stages: the document itself.
type fakePending string

func (fakePending) Wait() (uint64, error) { return 0, nil }
func (fakePending) BatchSize() int        { return 1 }

func (h *fakeHandler) Subscribe(string) (uint64, error) { return 1, nil }
func (h *fakeHandler) SubscribeDurable(string, string) (uint64, uint64, error) {
	return 1, 0, nil
}
func (h *fakeHandler) Unsubscribe(uint64) error { return nil }
func (h *fakeHandler) Ack(uint64)               {}

func (h *fakeHandler) StagePublish(doc []byte) (server.PendingAppend, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.staged = append(h.staged, string(doc))
	if h.stageErr != nil {
		return nil, h.stageErr
	}
	return fakePending(doc), nil
}

func (h *fakeHandler) Publish(doc []byte, _ uint64, staged server.PendingAppend) (int, error) {
	h.mu.Lock()
	h.published = append(h.published, staged)
	h.mu.Unlock()
	if h.publish == nil {
		return 0, nil
	}
	return h.publish(doc)
}

func (h *fakeHandler) stagedDocs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.staged...)
}

// pipeSession serves h on one end of a net.Pipe and returns the peer's end
// plus a channel closed when Serve has returned. Cleanup closes both ends and
// stops the async machinery once Serve is back.
func pipeSession(t *testing.T, h server.SessionHandler, opt server.SessionOptions) (*server.Session, net.Conn, <-chan struct{}) {
	t.Helper()
	peer, nc := net.Pipe()
	opt.MaxPayload = 1 << 20
	opt.SubLat, opt.UnsubLat = &obs.Histogram{}, &obs.Histogram{}
	opt.ErrPrefix = "test"
	ss := server.NewSession(nc, h, opt)
	served := make(chan struct{})
	go func() {
		defer close(served)
		ss.Serve()
	}()
	t.Cleanup(func() {
		ss.Close()
		peer.Close()
		<-served
		ss.StopAsync()
	})
	return ss, peer, served
}

// publishAsyncFrames encodes one PUBLISH_ASYNC frame per document, seq = its
// index, into a single buffer.
func publishAsyncFrames(docs ...string) []byte {
	var buf bytes.Buffer
	for i, d := range docs {
		server.WriteFrame(&buf, server.FramePublishAsync, server.AppendPublishAsyncPayload(nil, uint64(i), []byte(d)))
	}
	return buf.Bytes()
}

// readAcks collects PUBACKS entries from the peer's end until n have arrived.
func readAcks(t *testing.T, peer net.Conn, n int) (acks []server.PubAck) {
	t.Helper()
	br := bufio.NewReader(peer)
	for len(acks) < n {
		f, err := server.ReadFrame(br, 1<<20)
		if err != nil {
			t.Fatalf("reading acks (%d of %d so far): %v", len(acks), n, err)
		}
		if f.Type != server.FramePubAcks {
			t.Fatalf("frame type 0x%02x, want PUBACKS", f.Type)
		}
		batch, err := server.ParsePubAcksPayload(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, batch...)
	}
	return acks
}

func within(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestSessionBlockingPublishIsStaged: a blocking PUBLISH takes the pipelined
// order with a window of one — StagePublish, then Publish inline with what was
// staged — and a staging error is its reply, with no Publish.
func TestSessionBlockingPublishIsStaged(t *testing.T) {
	h := &fakeHandler{publish: func([]byte) (int, error) { return 3, nil }}
	_, peer, _ := pipeSession(t, h, server.SessionOptions{Window: 4})
	br := bufio.NewReader(peer)
	publish := func(doc string) server.Frame {
		t.Helper()
		go server.WriteFrame(peer, server.FramePublish, []byte(doc))
		f, err := server.ReadFrame(br, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := publish("<a/>")
	if n, err := server.ParseUint64(f.Payload); f.Type != server.FrameOK || err != nil || n != 3 {
		t.Fatalf("reply type 0x%02x payload %q, want OK(3)", f.Type, f.Payload)
	}
	h.mu.Lock()
	h.stageErr = fmt.Errorf("staging refused")
	h.mu.Unlock()
	if f := publish("<b/>"); f.Type != server.FrameErr || string(f.Payload) != "staging refused" {
		t.Fatalf("reply type 0x%02x payload %q, want ERR(staging refused)", f.Type, f.Payload)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if fmt.Sprint(h.staged) != "[<a/> <b/>]" || len(h.published) != 1 || h.published[0] != fakePending("<a/>") {
		t.Fatalf("staged %q, published with %v; want both staged and only <a/> published with its staged value", h.staged, h.published)
	}
}

// TestSessionWindowPacesReadLoop: with every worker blocked, the read loop
// stages exactly window publishes, reads one more frame and then stops
// reading, so the peer's next write does not complete until a worker does.
func TestSessionWindowPacesReadLoop(t *testing.T) {
	const window = 4
	release := make(chan struct{})
	h := &fakeHandler{publish: func([]byte) (int, error) { <-release; return 0, nil }}
	_, peer, _ := pipeSession(t, h, server.SessionOptions{Window: window})
	t.Cleanup(func() { close(release) }) // before the session's: unblocks the workers
	go io.Copy(io.Discard, peer)

	var written atomic.Int32
	go func() {
		// One pipe write per frame: a write returns once the session's
		// reader has taken it.
		for i := 0; i < window+2; i++ {
			if _, err := peer.Write(publishAsyncFrames("d")); err != nil {
				return
			}
			written.Add(1)
		}
	}()
	waitFor(t, "the window to fill", func() bool {
		return len(h.stagedDocs()) == window && written.Load() == window+1
	})
	time.Sleep(50 * time.Millisecond)
	if n, w := len(h.stagedDocs()), written.Load(); n != window || w != window+1 {
		t.Fatalf("with the window full: %d staged (want %d), %d frames taken (want %d)", n, window, w, window+1)
	}
	release <- struct{}{} // one worker completes: one slot, one more frame
	waitFor(t, "the freed slot to be used", func() bool {
		return len(h.stagedDocs()) == window+1 && written.Load() == window+2
	})
}

// TestSessionAckLoopDrainsAfterWriteError: the peer never reads, so the first
// PUBACKS write runs into the write deadline. The ack writer closes the
// connection but keeps draining, so the frames already buffered are all
// staged and published, no worker blocks, Serve returns and so does
// StopAsync.
func TestSessionAckLoopDrainsAfterWriteError(t *testing.T) {
	const n = 200
	h := &fakeHandler{}
	_, peer, served := pipeSession(t, h, server.SessionOptions{Window: 2, WriteTimeout: 10 * time.Millisecond})
	docs := make([]string, n)
	for i := range docs {
		docs[i] = "d"
	}
	// One write: every frame is in the session's read buffer before the
	// first ack fails.
	if _, err := peer.Write(publishAsyncFrames(docs...)); err != nil {
		t.Fatal(err)
	}
	// (pipeSession's cleanup then runs StopAsync, which returns only if no
	// worker is left blocked on the ack channel.)
	within(t, "Serve to return after the ack write failed", served)
	if got := len(h.stagedDocs()); got != n {
		t.Fatalf("%d publishes staged, want all %d buffered frames", got, n)
	}
}

// TestSessionStagePublishInFrameOrder: StagePublish sees documents in frame
// order whatever order the workers finish in, and every sequence number is
// acked exactly once.
func TestSessionStagePublishInFrameOrder(t *testing.T) {
	const n = 100
	h := &fakeHandler{publish: func(doc []byte) (int, error) {
		i, _ := strconv.Atoi(string(doc))
		time.Sleep(time.Duration(i%7) * 100 * time.Microsecond)
		if i%10 == 9 {
			return 0, fmt.Errorf("rejected %d", i)
		}
		return i, nil
	}}
	_, peer, _ := pipeSession(t, h, server.SessionOptions{Window: 8})
	docs := make([]string, n)
	for i := range docs {
		docs[i] = strconv.Itoa(i)
	}
	go peer.Write(publishAsyncFrames(docs...))
	acks := readAcks(t, peer, n)

	for i, d := range h.stagedDocs() {
		if d != docs[i] {
			t.Fatalf("StagePublish call %d got document %q, want %q", i, d, docs[i])
		}
	}
	seen := map[uint64]bool{}
	for _, a := range acks {
		if seen[a.Seq] || a.Seq >= n {
			t.Fatalf("seq %d acked twice or never sent", a.Seq)
		}
		seen[a.Seq] = true
		if a.Seq%10 == 9 {
			if a.Err != fmt.Sprintf("rejected %d", a.Seq) {
				t.Fatalf("seq %d: error %q", a.Seq, a.Err)
			}
		} else if a.Err != "" || a.Matches != a.Seq {
			t.Fatalf("seq %d: matches %d, error %q", a.Seq, a.Matches, a.Err)
		}
	}
}

// publishWorkers counts the goroutines running a session's publish worker.
func publishWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("server.(*Session).worker("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSessionWorkerSetPipelined: a few hundred pipelined publishes are each
// acked exactly once, the session never runs more publish workers than its
// window, and once StopAsync returns every goroutine it started is gone.
func TestSessionWorkerSetPipelined(t *testing.T) {
	const n, window = 400, 8
	base := runtime.NumGoroutine()
	var mu sync.Mutex
	maxWorkers := 0
	h := &fakeHandler{publish: func(doc []byte) (int, error) {
		i, _ := strconv.Atoi(string(doc))
		if i%25 == 0 {
			mu.Lock()
			maxWorkers = max(maxWorkers, publishWorkers())
			mu.Unlock()
		}
		time.Sleep(time.Duration(i%5) * 50 * time.Microsecond)
		return i, nil
	}}
	peer, nc := net.Pipe()
	ss := server.NewSession(nc, h, server.SessionOptions{
		MaxPayload: 1 << 20, Window: window, ErrPrefix: "test",
		SubLat: &obs.Histogram{}, UnsubLat: &obs.Histogram{},
	})
	served := make(chan struct{})
	go func() {
		defer close(served)
		ss.Serve()
	}()
	docs := make([]string, n)
	for i := range docs {
		docs[i] = strconv.Itoa(i)
	}
	go peer.Write(publishAsyncFrames(docs...))
	acks := readAcks(t, peer, n)

	seen := make([]bool, n)
	for _, a := range acks {
		if a.Seq >= n || seen[a.Seq] {
			t.Fatalf("seq %d acked twice or never sent", a.Seq)
		}
		seen[a.Seq] = true
		if a.Err != "" || a.Matches != a.Seq {
			t.Fatalf("seq %d: matches %d, error %q", a.Seq, a.Matches, a.Err)
		}
	}
	if len(acks) != n {
		t.Fatalf("%d acks, want %d", len(acks), n)
	}
	mu.Lock()
	if maxWorkers > window || maxWorkers == 0 {
		t.Errorf("%d publish workers seen at once, want 1..%d", maxWorkers, window)
	}
	mu.Unlock()
	if w := publishWorkers(); w == 0 || w > window {
		t.Errorf("%d publish workers parked after the burst, want 1..%d", w, window)
	}

	peer.Close()
	within(t, "Serve to return", served)
	ss.StopAsync()
	ss.Close()
	if w := publishWorkers(); w != 0 {
		t.Fatalf("%d publish workers left after StopAsync", w)
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestSessionIdleReadDeadline: the read deadline applies only while the
// connection holds no subscription.
func TestSessionIdleReadDeadline(t *testing.T) {
	const idle = 40 * time.Millisecond
	t.Run("no subscription", func(t *testing.T) {
		_, _, served := pipeSession(t, &fakeHandler{}, server.SessionOptions{ReadTimeout: idle})
		within(t, "the idle connection to be dropped", served)
	})
	t.Run("subscriber", func(t *testing.T) {
		_, peer, served := pipeSession(t, &fakeHandler{}, server.SessionOptions{ReadTimeout: idle})
		br := bufio.NewReader(peer)
		roundTrip := func(typ byte, payload []byte) {
			t.Helper()
			if err := server.WriteFrame(peer, typ, payload); err != nil {
				t.Fatal(err)
			}
			if f, err := server.ReadFrame(br, 1<<20); err != nil || f.Type != server.FrameOK {
				t.Fatalf("reply type 0x%02x, err %v; want OK", f.Type, err)
			}
		}
		roundTrip(server.FrameSubscribe, []byte("/a"))
		select {
		case <-served:
			t.Fatal("a quiet subscriber was dropped by the idle deadline")
		case <-time.After(5 * idle):
		}
		roundTrip(server.FrameUnsubscribe, server.AppendUint64(nil, 1))
		within(t, "the connection to be dropped once it holds no subscription", served)
	})
}

// TestSessionAcksHeldPublishesOutOfOrder: the ack writer holds outcomes
// while more publishes are running than are waiting to be acked, so it must
// still ack every publish when they finish out of order and with delays,
// some fail to stage, and the peer, like a client holding its next frames,
// sends nothing more until the acks of what it sent are back. Bursts of
// every size from one to three windows, each waited out, are each acked in
// full, once per sequence number.
func TestSessionAcksHeldPublishesOutOfOrder(t *testing.T) {
	const window = 8
	h := stageRejecter{&fakeHandler{publish: func(doc []byte) (int, error) {
		i, _ := strconv.Atoi(string(doc))
		// The first publishes of a burst are often the slowest, so the
		// others end before them.
		time.Sleep(time.Duration((i*7919)%11) * 100 * time.Microsecond)
		return i, nil
	}}}
	_, peer, _ := pipeSession(t, h, server.SessionOptions{Window: window})
	seq := 0
	for burst := 1; burst <= 3*window; burst++ {
		var buf bytes.Buffer
		for i := seq; i < seq+burst; i++ {
			server.WriteFrame(&buf, server.FramePublishAsync, server.AppendPublishAsyncPayload(nil, uint64(i), []byte(strconv.Itoa(i))))
		}
		go peer.Write(buf.Bytes())
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		acks := readAcks(t, peer, burst)
		seen := map[uint64]bool{}
		for _, a := range acks {
			want := pubAckFor(a.Seq)
			if seen[a.Seq] || a.Seq < uint64(seq) || a.Seq >= uint64(seq+burst) || a != want {
				t.Fatalf("burst of %d from seq %d: ack %+v repeated, outside the burst or not %+v", burst, seq, a, want)
			}
			seen[a.Seq] = true
		}
		seq += burst
	}
}

// stageRejecter fails to stage every ninth document.
type stageRejecter struct{ *fakeHandler }

func (h stageRejecter) StagePublish(doc []byte) (server.PendingAppend, error) {
	if i, _ := strconv.Atoi(string(doc)); i%9 == 4 {
		return nil, fmt.Errorf("staging %d", i)
	}
	return h.fakeHandler.StagePublish(doc)
}

// pubAckFor is the ack a stageRejecter session owes document seq.
func pubAckFor(seq uint64) server.PubAck {
	if seq%9 == 4 {
		return server.PubAck{Seq: seq, Err: fmt.Sprintf("staging %d", seq)}
	}
	return server.PubAck{Seq: seq, Matches: seq}
}
