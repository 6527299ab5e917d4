package server

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// conn is one broker connection: the Session that speaks the protocol on it,
// the delivery queue its subscriptions are fanned out to, and its durable
// replay state. It is the session's handler (Subscribe ... Publish below, Ack
// in durable.go).
type conn struct {
	s  *Server
	ss *Session

	mu        sync.Mutex
	q         *queue
	deliverWG sync.WaitGroup

	// Durable state (zero unless the client sent SubscribeDurable).
	durName  string // guarded by mu; the cursor identity this conn owns
	resume   uint64 // guarded by mu; offset the pump started from
	pumpOn   bool   // guarded by mu
	pumpStop chan struct{}
	pumpOnce sync.Once
	pumpWG   sync.WaitGroup
	pumpOff  atomic.Uint64 // next offset the pump will replay (lag gauge)
	acked    atomic.Uint64 // persisted cursor (monotonic)
	// durKeyHW is 1 + the largest registry key any durable subscription of
	// this connection has had: a journal entry answers for the connection
	// only when it was filtered on a generation whose keyHW reaches it.
	durKeyHW atomic.Uint64

	// Per-pump replay throughput (exported per durable name): log records
	// the pump has read and routed, and DeliverAt frames it wrote.
	pumpScanned   atomic.Int64
	pumpDelivered atomic.Int64
}

func (s *Server) newConn(nc net.Conn) *conn {
	cn := &conn{s: s}
	cn.ss = NewSession(nc, cn, SessionOptions{
		MaxPayload:   s.cfg.maxDocBytes(),
		Window:       s.cfg.asyncPublishWindow(),
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
		SubLat:       &s.subLat,
		UnsubLat:     &s.unsubLat,
		ErrPrefix:    "server",
	})
	return cn
}

func (cn *conn) Subscribe(query string) (uint64, error) {
	// Bind the queue before the new workload generation is published, so a
	// publish racing with this subscribe never fans out to a queueless
	// subscriber.
	cn.ensureQueue()
	return cn.s.subscribe(cn, query, false)
}

func (cn *conn) SubscribeDurable(name, query string) (id, resume uint64, err error) {
	return cn.s.subscribeDurable(cn, name, query)
}

func (cn *conn) Unsubscribe(id uint64) error { return cn.s.unsubscribe(cn, id) }

// StagePublish runs on the read loop for every PUBLISH, blocking or
// pipelined: it rejects what arrives during graceful shutdown, and on a
// WAL-backed server stages the document's append into the open group-commit
// batch, which keeps the log in frame order for this connection. Publish
// awaits the batch after filtering.
func (cn *conn) StagePublish(doc []byte) (PendingAppend, error) {
	s := cn.s
	if s.draining.Load() {
		s.mPublishErrs.Inc()
		return nil, errDraining
	}
	if s.wal == nil {
		return nil, nil
	}
	return s.wal.AppendAsync(doc), nil
}

// Publish runs the one publish function on a staged document.
func (cn *conn) Publish(doc []byte, traceID uint64, staged PendingAppend) (int, error) {
	return cn.s.publish(doc, staged, traceID)
}

// noteSubscribed raises durKeyHW over a durable subscription's registry key.
// Callers hold ctl, so raises do not race each other; the pump reads it
// without ctl.
func (cn *conn) noteSubscribed(key uint64, durable bool) {
	if durable && key >= cn.durKeyHW.Load() {
		cn.durKeyHW.Store(key + 1)
	}
}

// queue returns the delivery queue, nil if never subscribed.
func (cn *conn) queue() *queue {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.q
}

func (cn *conn) queueDepth() int {
	if q := cn.queue(); q != nil {
		return q.depth()
	}
	return 0
}

// ensureQueue lazily creates the delivery queue and its consumer goroutine.
func (cn *conn) ensureQueue() {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.q == nil {
		s := cn.s
		cn.q = newQueue(s.cfg.QueueDepth, s.cfg.Policy, s.cfg.blockDeadline(), s.mDropped[s.cfg.Policy])
		cn.deliverWG.Add(1)
		go func() {
			defer cn.deliverWG.Done()
			cn.q.consume(cn.deliverBatch)
		}()
	}
}

// deliverBatch writes one DELIVER frame per delivery, all under a single
// writer-lock acquisition and a single flush — every frame ready for this
// subscriber in one queue wakeup shares the syscall instead of paying a
// 64KB-buffer flush each. Returning false aborts the consumer. For a traced
// delivery it records the queue wait and the frame write as spans on the
// subscriber's own render track, stamps the trace id into the payload, and
// releases the delivery's trace reference.
func (cn *conn) deliverBatch(ds []delivery) bool {
	werr := cn.ss.write(true, func(w *bufio.Writer) error {
		var err error
		for i := range ds {
			d := &ds[i]
			tc := d.tc
			var traceID uint64
			var wspan trace.SpanID = trace.NoSpan
			if tc != nil {
				traceID = tc.ID
				track := tc.NextTrack()
				qw := tc.AddSpan("queue_wait", trace.Root, tc.Offset(d.enq), tc.Offset(time.Now()))
				tc.SetTrack(qw, track)
				wspan = tc.StartSpan("deliver_write", trace.Root)
				tc.SetTrack(wspan, track)
				tc.SetAttr(wspan, "filters", int64(len(d.filters)))
			}
			if err == nil {
				err = writeDeliverFrame(w, FrameDeliver, 0, d.filters, d.doc, traceID)
			}
			tc.EndSpan(wspan)
		}
		return err
	})
	now := time.Now()
	for i := range ds {
		ds[i].tc.Finish()
		if werr == nil {
			cn.s.deliverLat.Observe(now.Sub(ds[i].enq).Seconds())
		}
	}
	if werr != nil {
		return false
	}
	cn.s.mDeliveries.Add(int64(len(ds)))
	return true
}

// beginDrain stops the queue consumer after a final flush (graceful
// shutdown); the connection itself stays open until Shutdown closes it.
func (cn *conn) beginDrain() {
	if q := cn.queue(); q != nil {
		q.close()
	}
}

// teardown runs when the session ends: settle in-flight pipelined
// publishes, unbind filters, flush and stop the delivery consumer, close
// the socket, stop the WAL pump (the closed socket unsticks a pump blocked
// in a frame write), release the durable name.
func (cn *conn) teardown() {
	cn.ss.StopAsync()
	cn.s.unsubscribeConn(cn)
	if q := cn.queue(); q != nil {
		q.close()
		cn.deliverWG.Wait()
		// A push racing with close can land in the buffered channel after
		// the consumer exits; release those so their traces complete.
		q.drainRelease()
	}
	cn.ss.Close()
	cn.stopPump()
	cn.s.releaseDurable(cn)
}
