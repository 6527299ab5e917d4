package server

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	xpushstream "repro"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/wal"
)

// DocLog is the append-ordered document log behind durable delivery. The
// production implementation is *wal.Log (via WrapWAL); tests inject failing
// or in-memory logs through the same seam.
type DocLog interface {
	// AppendAsync stages one document into the open group-commit batch and
	// returns at once; the publish filters the document while the batch
	// fills and commits, then waits for the outcome (Server.publish).
	AppendAsync(doc []byte) PendingAppend
	// OpenReader starts a reader at offset; its Next returns io.EOF at the
	// committed tail and wal.ErrTruncated below the retained range.
	OpenReader(offset uint64) (DocReader, error)
	// FirstOffset is the oldest retained offset; NextOffset the next to be
	// assigned.
	FirstOffset() uint64
	NextOffset() uint64
}

// DocReader iterates a DocLog; the payload is valid until the next call.
type DocReader interface {
	Next() (uint64, []byte, error)
	Close() error
}

// CursorStore persists durable subscribers' replay cursors by name.
type CursorStore interface {
	Load(name string) (offset uint64, ok bool, err error)
	Store(name string, offset uint64) error
}

// PendingAppend is an append staged into a group-commit batch but not yet
// committed (see wal.Pending).
type PendingAppend interface {
	// Wait blocks for the batch outcome and returns the record's offset.
	// An error that wraps wal.ErrOffsetStands still names a valid offset.
	Wait() (uint64, error)
	// BatchSize is how many records shared the batch, once Wait has
	// returned.
	BatchSize() int
}

// docLogHealth is the optional health seam on DocLog: Failed reports a
// latched persistent storage failure (the /healthz degraded state).
type docLogHealth interface {
	Failed() error
}

type walDocLog struct{ l *wal.Log }

func (w walDocLog) AppendAsync(doc []byte) PendingAppend     { return w.l.AppendAsync(doc) }
func (w walDocLog) OpenReader(off uint64) (DocReader, error) { return w.l.OpenReader(off) }
func (w walDocLog) FirstOffset() uint64                      { return w.l.FirstOffset() }
func (w walDocLog) NextOffset() uint64                       { return w.l.NextOffset() }
func (w walDocLog) Failed() error                            { return w.l.Failed() }

// WrapWAL adapts a *wal.Log to the DocLog seam for Config.WAL.
func WrapWAL(l *wal.Log) DocLog {
	if l == nil {
		return nil
	}
	return walDocLog{l}
}

// walChan returns the channel closed by the next walBroadcast. Pumps grab it
// BEFORE checking the log tail so an append between the check and the wait
// cannot be missed.
func (s *Server) walChan() <-chan struct{} {
	s.noteMu.Lock()
	defer s.noteMu.Unlock()
	return s.walNote
}

// walBroadcast wakes every pump parked at the log tail (close-and-replace).
func (s *Server) walBroadcast() {
	s.noteMu.Lock()
	ch := s.walNote
	s.walNote = make(chan struct{})
	s.noteMu.Unlock()
	close(ch)
}

// subscribeDurable registers a durable filter for cn under name and returns
// the filter id plus the offset replay resumes from. Durable subscribers are
// not fed from delivery queues: a per-connection pump reads the log from the
// persisted cursor, routes each document by what it matched at publish (the
// match journal; an engine pass where the journal cannot answer, see pump),
// and writes DeliverAt frames paced by the TCP connection itself — nothing is
// ever dropped, only delayed (at-least-once; Ack advances the cursor).
//
// A name identifies one logical subscriber: reconnecting under a live name
// takes it over (the previous connection is closed), so a crashed client's
// half-dead session cannot wedge its replacement.
func (s *Server) subscribeDurable(cn *conn, name, xpath string) (id, resume uint64, err error) {
	if s.wal == nil || s.cursors == nil {
		return 0, 0, errors.New("server: durable subscriptions require a WAL-backed server (-wal-dir)")
	}
	cn.mu.Lock()
	if cn.durName != "" && cn.durName != name {
		have := cn.durName
		cn.mu.Unlock()
		return 0, 0, fmt.Errorf("server: connection already owns durable name %q", have)
	}
	cn.mu.Unlock()
	cursor, haveCursor, err := s.cursors.Load(name)
	if err != nil {
		return 0, 0, err
	}
	resume = s.wal.NextOffset()
	if haveCursor && cursor < resume {
		// A cursor past the tail (the log was rebuilt) clamps to the tail.
		resume = cursor
	}
	id, err = s.subscribe(cn, xpath, true)
	if err != nil {
		return 0, 0, err
	}
	if !haveCursor {
		// Persist the subscription point before any delivery: a subscriber
		// that disconnects or crashes before its first ack must resume from
		// here on reconnect, not from whatever the tail has grown to.
		if serr := s.cursors.Store(name, resume); serr != nil {
			if uerr := s.unsubscribe(cn, id); uerr != nil {
				s.logf("durable %q: rolling back filter %d: %v", name, id, uerr)
			}
			return 0, 0, fmt.Errorf("server: persisting initial cursor for durable %q: %w", name, serr)
		}
	}

	s.durMu.Lock()
	if prev := s.durables[name]; prev != nil && prev != cn {
		// Takeover: the newest session wins; the previous connection tears
		// down asynchronously in its own serve goroutine.
		s.logf("durable %q taken over by %s", name, cn.ss.RemoteAddr())
		prev.ss.Close()
	}
	s.durables[name] = cn
	s.durMu.Unlock()

	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.pumpOn {
		// Additional filters share the connection's existing pump.
		return id, cn.resume, nil
	}
	cn.durName = name
	cn.resume = resume
	cn.acked.Store(resume)
	cn.pumpOff.Store(resume)
	cn.pumpOn = true
	cn.pumpStop = make(chan struct{})
	cn.pumpWG.Add(1)
	go cn.pump(name, resume)
	return id, resume, nil
}

// pumpFlushEvery bounds how many DeliverAt frames the durable pump stages
// between explicit flushes while replaying a backlog.
const pumpFlushEvery = 64

// pump is the durable delivery loop: replay from start, then follow the live
// tail. A document is routed from the match journal (journal.go) — what the
// machine matched when it was published — and only filtered again when the
// journal cannot answer for this connection:
//
//   - hit: the entry was filtered on a generation whose keyHW reaches the
//     connection's durKeyHW, i.e. on a workload that already held every
//     filter the connection subscribes to durably, so the journaled keys
//     resolved through the registry (which skips what has been unsubscribed
//     since) are exactly what filtering on the current workload would give.
//     No engine call, no publish lock.
//   - not yet journaled: the record is readable as soon as its batch commits,
//     before the publisher that owns it has journaled it. The pump flushes
//     what it has staged and parks until the next walBroadcast — which a
//     publish fires after its put — rather than filtering the document a
//     second time just because it got there first. It parks at most
//     journalWait per record: a record no publish of this process will ever
//     journal (written into the log from outside) is then filtered here, so
//     the pump cannot park forever.
//   - miss (the ring has lapped this offset, the record predates this
//     process, or the connection holds a filter newer than the entry's
//     workload): the engine pass, on the current workload.
//
// Each replayed document gets its own "replay" trace (under the same sampling
// rules as publishes) covering the log read, the journal lookup or the
// filter pass, and the frame write, with the cursor's distance from the log
// head as replay_lag.
func (cn *conn) pump(name string, start uint64) {
	defer cn.pumpWG.Done()
	s := cn.s
	s.pumpsActive.Add(1)
	defer s.pumpsActive.Add(-1)
	r, err := s.wal.OpenReader(start)
	if err != nil {
		s.logf("durable %q: open reader: %v", name, err)
		cn.ss.Close()
		return
	}
	defer r.Close()
	// Frames are buffered and flushed when the pump catches up with the log
	// tail (or every pumpFlushEvery frames mid-replay), so a burst of
	// replayed documents shares one flush instead of paying one per frame.
	unflushed := 0
	flush := func() bool {
		if unflushed == 0 {
			return true
		}
		unflushed = 0
		if werr := cn.ss.Flush(); werr != nil {
			s.logf("durable %q: flush: %v", name, werr)
			cn.ss.Close()
			return false
		}
		return true
	}
	var keys []uint64 // the matched keys of the document in hand, reused
	for {
		ch := s.walChan() // before Next: see walChan
		t0 := time.Now()
		off, doc, err := r.Next()
		switch {
		case err == io.EOF:
			if !flush() {
				return
			}
			select {
			case <-ch:
				continue
			case <-cn.pumpStop:
				return
			}
		case errors.Is(err, wal.ErrTruncated):
			// Retention deleted the wanted range before this subscriber
			// caught up; skip to the oldest retained document.
			first := s.wal.FirstOffset()
			s.logf("durable %q: offsets below %d lost to retention", name, first)
			r.Close()
			if r, err = s.wal.OpenReader(first); err != nil {
				s.logf("durable %q: reopen reader: %v", name, err)
				cn.ss.Close()
				return
			}
			continue
		case err != nil:
			s.logf("durable %q: log read: %v", name, err)
			cn.ss.Close()
			return
		}
		cn.pumpScanned.Add(1)
		// BeginAt backdates the trace to before Next so the log read is
		// covered; the tail-parked EOF path above never reaches here, so t0
		// measures an actual read, not a wait.
		tc := s.tracer.BeginAt("replay", t0)
		tc.AddSpan("log_read", trace.Root, 0, tc.Offset(time.Now()))
		tc.SetAttr(trace.Root, "offset", int64(off))
		tc.SetAttr(trace.Root, "doc_bytes", int64(len(doc)))
		if next := s.wal.NextOffset(); next > off {
			tc.SetAttr(trace.Root, "replay_lag", int64(next-(off+1)))
		}
		var ids []uint64
		hit := false
		if s.journal != nil {
			jspan := tc.StartSpan("journal", trace.Root)
			var st journalState
			var ok bool
			if keys, st, ok = cn.awaitJournal(off, keys, ch, flush); !ok {
				tc.Finish()
				return
			}
			s.journal.count(st)
			if hit = st == journalHit; hit {
				ids = s.durableSubs(cn, keys, tc)
				tc.SetAttr(jspan, "keys", int64(len(keys)))
				tc.SetAttr(jspan, "hit", 1)
			} else {
				tc.SetAttr(jspan, "hit", 0)
			}
			tc.EndSpan(jspan)
		}
		if !hit {
			// The engine pass, on the current workload, into the same buffer.
			if keys, err = xpushstream.AppendMatches(s.cur.Load(), keys[:0], doc, tc, trace.Root); err != nil {
				// The document is already accepted into the log; a filter
				// error here (e.g. malformed XML vs a stricter engine config)
				// must not wedge the stream.
				s.logf("durable %q: filter error at offset %d: %v", name, off, err)
			}
			ids = s.durableSubs(cn, keys, tc)
		}
		if len(ids) > 0 {
			wspan := tc.StartSpan("deliver_write", trace.Root)
			werr := cn.ss.WriteDeliver(FrameDeliverAt, off, ids, doc, tc.TraceID(), false)
			if unflushed++; werr == nil && unflushed >= pumpFlushEvery {
				unflushed = 0
				werr = cn.ss.Flush()
			}
			tc.EndSpan(wspan)
			if werr != nil {
				// A failed frame write (e.g. a write-deadline expiry mid-frame)
				// leaves the stream unusable; tear the connection down so the
				// serve loop releases the durable name and the client can
				// reconnect, instead of silently stopping deliveries.
				s.logf("durable %q: write at offset %d: %v", name, off, werr)
				tc.Finish()
				cn.ss.Close()
				return
			}
			s.mDurDeliver.Inc()
			cn.pumpDelivered.Add(1)
		}
		tc.Finish()
		cn.pumpOff.Store(off + 1)
	}
}

// awaitJournal looks the record at off up in the match journal for cn,
// parking while the publisher that owns it has not journaled it yet (see
// pump). ch is a walChan grabbed before the caller read the record; flush
// sends what the pump has staged before it parks. The keys of a hit are
// appended to keys[:0]. ok is false when the pump has to exit: it was stopped
// while parked, or flush failed.
func (cn *conn) awaitJournal(off uint64, keys []uint64, ch <-chan struct{}, flush func() bool) (_ []uint64, st journalState, ok bool) {
	s := cn.s
	var deadline time.Time
	for {
		if keys, st = s.journal.get(off, cn.durKeyHW.Load(), keys); st != journalNotYet {
			return keys, st, true
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(journalWait)
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return keys, journalTimeout, true
		}
		if !flush() {
			return keys, st, false
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
		case <-timer.C:
		case <-cn.pumpStop:
			timer.Stop()
			return keys, st, false
		}
		timer.Stop()
		ch = s.walChan() // before the next look, as before Next in pump
	}
}

// durableSubs resolves the registry keys a replayed document matched —
// journaled at publish, or fresh from the engine pass — to cn's durable
// subscription ids. Traced replays feed the per-query profiler's replay
// column: which canonical queries the pump keeps delivering documents for.
func (s *Server) durableSubs(cn *conn, keys []uint64, tc *trace.Ctx) []uint64 {
	if len(keys) == 0 {
		return nil
	}
	if tc != nil && s.prof != nil {
		s.prof.observeReplay(keys, queryText(s.cur.Load()))
	}
	return s.subs.OwnerSubs(keys, cn, true)
}

// Ack persists an advanced cursor. Acks carry no response frame, so
// problems are logged rather than reported (a lost ack only widens the
// at-least-once redelivery window).
func (cn *conn) Ack(off uint64) {
	s := cn.s
	cn.mu.Lock()
	name := cn.durName
	cn.mu.Unlock()
	if name == "" || s.cursors == nil {
		s.logf("ignoring ACK(%d) from non-durable connection %s", off, cn.ss.RemoteAddr())
		return
	}
	next := off + 1
	if next <= cn.acked.Load() {
		return // stale or duplicate ack
	}
	// Only the connection currently owning the name may advance its cursor:
	// a late ack from a taken-over session must not move the new session's
	// replay point. durMu stays held across the Store — releasing it between
	// the ownership check and the write would let a takeover slip in and the
	// old session's stale cursor overwrite the new session's.
	s.durMu.Lock()
	if s.durables[name] != cn {
		s.durMu.Unlock()
		return
	}
	err := s.cursors.Store(name, next)
	if err == nil {
		cn.acked.Store(next)
	}
	s.durMu.Unlock()
	if err != nil {
		s.logf("durable %q: persisting cursor %d: %v", name, next, err)
		return
	}
	s.mAcks.Inc()
}

// stopPump asks the pump to exit; teardown closes the socket first so a pump
// blocked in a frame write unsticks.
func (cn *conn) stopPump() {
	cn.mu.Lock()
	on := cn.pumpOn
	cn.mu.Unlock()
	if !on {
		return
	}
	cn.pumpOnce.Do(func() { close(cn.pumpStop) })
	cn.pumpWG.Wait()
}

// releaseDurable drops the name binding if cn still owns it.
func (s *Server) releaseDurable(cn *conn) {
	cn.mu.Lock()
	name := cn.durName
	cn.mu.Unlock()
	if name == "" {
		return
	}
	s.durMu.Lock()
	if s.durables[name] == cn {
		delete(s.durables, name)
	}
	s.durMu.Unlock()
}

// registerDurableMetrics adds the WAL and durable-delivery series. Called
// only when Config.WAL is set.
func (s *Server) registerDurableMetrics() {
	s.mAcks = s.reg.Counter("xpushserve_acks_total", "ACK frames that advanced a durable cursor")
	s.mDurDeliver = s.reg.Counter("xpushserve_durable_deliveries_total", "DELIVERAT frames written to durable subscribers")
	s.reg.GaugeFunc("xpushserve_durable_subscribers", "connected durable subscribers", func() float64 {
		s.durMu.Lock()
		defer s.durMu.Unlock()
		return float64(len(s.durables))
	})
	s.reg.GaugeFunc("xpushserve_replay_lag", "log records not yet replayed to the slowest durable subscriber", func() float64 {
		next := s.wal.NextOffset()
		var max uint64
		s.durMu.Lock()
		for _, cn := range s.durables {
			if at := cn.pumpOff.Load(); at < next && next-at > max {
				max = next - at
			}
		}
		s.durMu.Unlock()
		return float64(max)
	})
	s.reg.GaugeVecFunc("xpush_durable_replay_lag_offsets",
		"log records between a durable subscriber's persisted cursor and the log head", func() []obs.Labeled {
			next := s.wal.NextOffset()
			s.durMu.Lock()
			out := make([]obs.Labeled, 0, len(s.durables))
			for name, cn := range s.durables {
				var lag uint64
				if a := cn.acked.Load(); a < next {
					lag = next - a
				}
				out = append(out, obs.Labeled{Labels: fmt.Sprintf("name=%q", name), Value: float64(lag)})
			}
			s.durMu.Unlock()
			sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
			return out
		})
	s.reg.GaugeFunc("xpush_durable_pump_active", "running durable replay pumps", func() float64 {
		return float64(s.pumpsActive.Load())
	})
	pumpVec := func(pick func(*conn) int64) func() []obs.Labeled {
		return func() []obs.Labeled {
			s.durMu.Lock()
			out := make([]obs.Labeled, 0, len(s.durables))
			for name, cn := range s.durables {
				out = append(out, obs.Labeled{Labels: fmt.Sprintf("name=%q", name), Value: float64(pick(cn))})
			}
			s.durMu.Unlock()
			sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
			return out
		}
	}
	s.reg.GaugeVecFunc("xpush_durable_pump_docs_scanned_total",
		"log records each durable subscriber's replay pump read and routed (from the match journal, or by an engine pass on a journal miss)",
		pumpVec(func(cn *conn) int64 { return cn.pumpScanned.Load() }))
	s.reg.GaugeVecFunc("xpush_durable_pump_deliveries_total",
		"DELIVERAT frames each durable subscriber's replay pump wrote",
		pumpVec(func(cn *conn) int64 { return cn.pumpDelivered.Load() }))
	if j := s.journal; j != nil {
		s.reg.CounterFunc("xpushserve_durable_journal_hits_total",
			"replayed log records routed from the publish-time match journal, without an engine pass", j.hits.Load)
		s.reg.GaugeVecFunc("xpushserve_durable_journal_misses_total",
			"replayed log records the match journal could not answer, filtered again by the pump: lapped (the ring has moved past the offset), preboot (logged by an earlier process), new_filter (the subscriber holds a filter newer than the workload the record was filtered on), timeout (no publish journaled the record in time)", func() []obs.Labeled {
				out := make([]obs.Labeled, len(journalMissReasons))
				for i, reason := range journalMissReasons {
					out[i] = obs.Labeled{Labels: `reason="` + reason + `"`, Value: float64(j.misses[i].Load())}
				}
				return out
			})
	}
	s.reg.GaugeFunc("xpushserve_acked_offset_min", "lowest persisted cursor among connected durable subscribers", func() float64 {
		s.durMu.Lock()
		defer s.durMu.Unlock()
		min := float64(-1)
		for _, cn := range s.durables {
			if a := float64(cn.acked.Load()); min < 0 || a < min {
				min = a
			}
		}
		if min < 0 {
			return 0
		}
		return min
	})
	wl, ok := s.wal.(walDocLog)
	if !ok {
		return
	}
	l := wl.l
	s.reg.GaugeFunc("xpushserve_wal_bytes", "bytes retained in the document log", func() float64 {
		return float64(l.Stats().Bytes)
	})
	s.reg.GaugeFunc("xpushserve_wal_segments", "segment files in the document log", func() float64 {
		return float64(l.Stats().Segments)
	})
	s.reg.GaugeFunc("xpushserve_wal_first_offset", "oldest retained log offset", func() float64 {
		return float64(l.FirstOffset())
	})
	s.reg.GaugeFunc("xpushserve_wal_next_offset", "next log offset to be assigned", func() float64 {
		return float64(l.NextOffset())
	})
	s.reg.CounterFunc("xpushserve_wal_appends_total", "documents appended to the log", func() int64 {
		return l.Stats().Appends
	})
	s.reg.CounterFunc("xpushserve_wal_append_errors_total", "failed log appends", func() int64 {
		return l.Stats().AppendErrors
	})
	s.reg.CounterFunc("xpushserve_wal_syncs_total", "fsyncs of the active log segment", func() int64 {
		return l.Stats().Syncs
	})
	s.reg.CounterFunc("xpush_wal_fsync_errors_total", "failed fsyncs of the active log segment", func() int64 {
		return l.Stats().FsyncErrors
	})
	s.reg.HistogramFunc("xpushserve_wal_batch_size_records",
		"documents per group-commit batch (log buckets)", l.BatchSizes)
	s.reg.SummaryFunc("xpushserve_wal_fsync_latency_seconds",
		"log fsync latency quantiles", []float64{0.5, 0.9, 0.99}, l.FsyncLatency)
	s.reg.HistogramFunc("xpushserve_wal_fsync_latency_histogram_seconds",
		"log fsync latency (log buckets)", l.FsyncLatency)
}
