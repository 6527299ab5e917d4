package server

// The data plane: one publish function, the engine pass it shares with
// durable replay, and fan-out into the subscribers' delivery queues.

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// publish filters one document on the current workload generation and fans
// the matches out to subscriber queues. It returns the matched-subscription
// count (a boot-pinned filter with no subscribers counts once). On a
// WAL-backed server the document is in the log before it is fanned out — a
// failed append rejects the publish, so every accepted document is
// replayable:
//
//   - a blocking PUBLISH (pend == nil) appends here, durably per the fsync
//     policy, before anything else;
//   - a pipelined publish was staged into a group-commit batch on the read
//     loop (pend, from conn.StagePublish). It is filtered FIRST and the batch
//     outcome awaited after, so the filter work of consecutive pipelined
//     publishes overlaps the shared batch fsync instead of serializing behind
//     it.
//
// remoteID is the trace id carried on a FrameTraceFlag-marked publish (0
// for the plain frames): the upstream hop (an xpushgate) already sampled
// this document, so the node traces it unconditionally under the carried id
// and the two hops stitch into one trace.
func (s *Server) publish(doc []byte, pend PendingAppend, remoteID uint64) (int, error) {
	// tc is nil for untraced documents — the common case, and the one the
	// zero-allocation guarantee covers; every span call below is a nil
	// no-op then. The publish path holds one trace reference, released by
	// the deferred Finish; each enqueued delivery takes another, so the
	// trace completes (and its total latency is measured) at the last
	// DELIVER write, not when publish returns.
	tc := s.beginPublishTrace(remoteID)
	defer tc.Finish()
	tc.SetAttr(trace.Root, "doc_bytes", int64(len(doc)))
	var off uint64
	if s.wal != nil && pend == nil {
		var err error
		if off, err = s.walAppend(doc, tc); err != nil {
			s.mPublishErrs.Inc()
			return 0, fmt.Errorf("server: wal append: %w", err)
		}
	}
	c, matches, ferr := s.filter(doc, true, tc, trace.Root)
	keys := c.matchKeys(matches)
	var aerr error
	if pend != nil {
		wspan := tc.StartSpan("wal_append", trace.Root)
		off, aerr = pend.Wait()
		tc.EndSpan(wspan)
		if bs, ok := pend.(interface{ BatchSize() int }); ok {
			tc.SetAttr(wspan, "batch_size", int64(bs.BatchSize()))
		}
	}
	if s.wal != nil && (aerr == nil || off > 0) {
		// The record stands in the log — also beside an error, when Wait
		// still names an offset (wal.Pending.Wait: the batch failed its
		// fsync and could not be truncated away), and after a filter error
		// (no keys then). Journal what it matched, then wake the pumps.
		s.journal.put(off, c.keyHW, keys)
		defer s.walBroadcast()
	}
	if aerr != nil {
		// The publish is rejected even though it was filtered: the
		// document is not durable, so fanning it out would deliver a
		// document that a crash could un-accept.
		s.mPublishErrs.Inc()
		return 0, fmt.Errorf("server: wal append: %w", aerr)
	}
	if ferr != nil {
		s.mPublishErrs.Inc()
		return 0, ferr
	}
	s.mPublishes.Inc()
	return s.fanout(c, keys, doc, tc), nil
}

// walAppend appends doc to the log under a "wal_append" span (with the fsync
// wait as a child span when the log records one) and returns its offset.
func (s *Server) walAppend(doc []byte, tc *trace.Ctx) (uint64, error) {
	wspan := tc.StartSpan("wal_append", trace.Root)
	defer tc.EndSpan(wspan)
	if tl, ok := s.wal.(docLogTraced); ok {
		return tl.AppendTraced(doc, tc, wspan)
	}
	return s.wal.Append(doc)
}

// beginPublishTrace starts the publish trace: locally sampled for direct
// publishes, unconditional under the carried id for remote-traced ones.
func (s *Server) beginPublishTrace(remoteID uint64) *trace.Ctx {
	if remoteID != 0 && s.tracer.Enabled() {
		return s.tracer.BeginRemote("publish", remoteID, time.Now())
	}
	return s.tracer.Begin("publish")
}

// filter runs one document through the current workload generation and
// returns that generation plus the matched engine indexes. Publishes come
// through here, and the durable replays the match journal cannot answer
// (conn.pump), from as many goroutines as there are; spans hang off parent.
// tc is nil for untraced documents (the common case) and records nothing.
// The generation is always fresh enough: a SUBSCRIBE swaps it in before its
// reply is written. published marks a document fresh off a PUBLISH frame:
// its payload is never written again, so the compaction ring may keep a
// reference to it (a replayed document sits in the log reader's reused
// buffer).
func (s *Server) filter(doc []byte, published bool, tc *trace.Ctx, parent trace.SpanID) (*core, []int, error) {
	c := s.cur.Load()
	matches, err := c.engine.FilterDocumentTraced(doc, tc, parent)
	if published && err == nil {
		s.recent.add(doc)
	}
	return c, matches, err
}

// fanout resolves matched registry keys through the dedup registry's fan-out
// sets and enqueues one delivery per matched subscriber. keys are stable
// across generations (core.matchKeys translated them on c, the generation
// the document was filtered on), so a match computed on an older core still
// routes correctly after consolidation. The returned count is the number of
// matched subscriptions (pinned boot filters with no subscribers count once
// each — the pre-dedup publish contract).
func (s *Server) fanout(c *core, keys []uint64, doc []byte, tc *trace.Ctx) int {
	if len(keys) == 0 {
		return 0
	}
	now := time.Now()
	// Group the matched subscription ids by owning subscriber; each
	// subscriber gets one delivery per document regardless of how many of
	// its subscriptions matched.
	// Per-query cost attribution, traced documents only: the filter span's
	// duration and machine telemetry are charged to every matched key, and
	// each fanned-out subscription below increments its key's fan-out count.
	// Untraced documents (tc == nil) never touch the profiler.
	if tc != nil && s.prof != nil {
		durNS, states, _ := tc.SpanCost("filter", "states_created")
		s.prof.observeFilter(keys, c.canonsOf(keys), durNS, states)
	}
	// The matched subscription ids land in one array sized from the
	// registry's counts, allocated at the first delivery (a document that
	// only durable subscriptions match needs none); owners[i] is the
	// subscriber of ids[i], kept only once a second subscriber shows up.
	count := 0
	total := s.subs.SubscriptionsOn(keys)
	var ids []uint64
	var first *conn
	var owners []*conn
	s.subs.Fanout(keys, func(key uint64, _ bool, nsubs int, subID uint64, owner *conn, durable bool) {
		count++
		if tc != nil && s.prof != nil {
			s.prof.observeFanout(key, 1)
		}
		if nsubs == 0 || durable {
			// Pinned boot filter (no riders), or a durable subscription
			// delivered by the owner's WAL pump.
			return
		}
		if first == nil {
			first = owner
			ids = make([]uint64, 0, total)
		} else if owners == nil && owner != first {
			owners = make([]*conn, len(ids), cap(ids))
			for i := range owners {
				owners[i] = first
			}
		}
		ids = append(ids, subID)
		if owners != nil {
			owners = append(owners, owner)
		}
	})
	if owners == nil {
		if first != nil {
			s.enqueue(first, delivery{doc: doc, filters: ids, enq: now, tc: tc})
		}
		return count
	}
	// Several subscribers: regroup the ids by owner into one array, each
	// subscriber's list a contiguous run of it.
	runs := make(map[*conn]idRun)
	for _, o := range owners {
		r := runs[o]
		r.hi++
		runs[o] = r
	}
	at := 0
	for o, r := range runs {
		runs[o] = idRun{at, at}
		at += r.hi
	}
	grouped := make([]uint64, len(ids))
	for i, o := range owners {
		r := runs[o]
		grouped[r.hi] = ids[i]
		r.hi++
		runs[o] = r
	}
	for o, r := range runs {
		s.enqueue(o, delivery{doc: doc, filters: grouped[r.lo:r.hi:r.hi], enq: now, tc: tc})
	}
	return count
}

// idRun is one subscriber's run [lo, hi) of the regrouped fan-out ids.
type idRun struct{ lo, hi int }

func (s *Server) enqueue(cn *conn, d delivery) {
	q := cn.queue()
	if q == nil {
		return // subscriber is already tearing down
	}
	// The delivery holds a trace reference until the DELIVER write (or the
	// drop point that discards it — every queue.push exit path accounts for
	// it, see delivery.release).
	d.tc.Ref()
	if q.push(d) {
		s.logf("disconnecting slow subscriber %s (policy=%s)", cn.ss.RemoteAddr(), s.cfg.Policy)
		cn.ss.Close()
	}
}
