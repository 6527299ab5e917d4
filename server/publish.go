package server

// The data plane: one publish function and fan-out into the subscribers'
// delivery queues.

import (
	"errors"
	"fmt"
	"time"

	xpushstream "repro"
	"repro/internal/trace"
	"repro/wal"
)

// publish filters one document on the current workload generation and fans
// the matches out to subscriber queues. It returns the matched-subscription
// count (a boot-pinned filter with no subscribers counts once). Every publish
// runs in one order. On a WAL-backed server the session has already staged
// the document into a group-commit batch (pend, from conn.StagePublish),
// blocking PUBLISH and pipelined alike: the document is filtered first and
// the batch outcome awaited after, so the filter work overlaps the batch's
// fsync, and nothing is journaled or fanned out before the batch is durable.
// A failed append rejects the publish, so every accepted document is
// replayable.
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
	// The current generation is fresh enough: a SUBSCRIBE swaps it in before
	// its reply is written. The engine appends the matched filter ids — the
	// registry keys — to a buffer on this stack: nothing below keeps them (the
	// journal and the deliveries copy what they keep). The buffer is small,
	// and there is no helper frame between here and the engine, because this
	// runs on the window workers' stacks, which the runtime shrinks while they
	// park: a deeper path from here to the scanner's innermost call grows
	// them again after every GC (a few % of the floor's CPU in copystack).
	e := s.cur.Load()
	var buf [8]uint64
	keys, ferr := xpushstream.AppendMatches(e, buf[:0], doc, tc, trace.Root)
	if ferr == nil {
		// The payload is the frame's own and never written again, so the
		// compaction ring may keep a reference to it.
		s.recent.add(doc)
	}
	if pend != nil {
		wspan := tc.StartSpan("wal_append", trace.Root)
		off, aerr := pend.Wait()
		tc.EndSpan(wspan)
		tc.SetAttr(wspan, "batch_size", int64(pend.BatchSize()))
		if aerr == nil || errors.Is(aerr, wal.ErrOffsetStands) {
			// The record stands in the log — also beside an error that says
			// so (wal.Pending.Wait: the batch failed its fsync and could not
			// be truncated away), and after a filter error (no keys then).
			// Journal what it matched under the generation's keyHW
			// (control.go), then wake the pumps.
			s.journal.put(off, uint64(e.NumQueries()), keys)
			defer s.walBroadcast()
		}
		if aerr != nil {
			// The publish is rejected even though it was filtered: the
			// document is not durable, so fanning it out would deliver a
			// document that a crash could un-accept.
			s.mPublishErrs.Inc()
			return 0, fmt.Errorf("server: wal append: %w", aerr)
		}
	}
	if ferr != nil {
		s.mPublishErrs.Inc()
		return 0, ferr
	}
	s.mPublishes.Inc()
	return s.fanout(e, keys, doc, tc), nil
}

// beginPublishTrace starts the publish trace: locally sampled for direct
// publishes, unconditional under the carried id for remote-traced ones.
func (s *Server) beginPublishTrace(remoteID uint64) *trace.Ctx {
	if remoteID != 0 && s.tracer.Enabled() {
		return s.tracer.BeginRemote("publish", remoteID, time.Now())
	}
	return s.tracer.Begin("publish")
}

// fanout resolves matched registry keys through the dedup registry's fan-out
// sets and enqueues one delivery per matched subscriber. Keys are filter ids,
// which no generation renumbers, so a match computed on e, an older
// generation, still routes correctly after a swap. The returned count is the
// number of matched subscriptions (pinned boot filters with no subscribers
// count once each — the pre-dedup publish contract).
func (s *Server) fanout(e *xpushstream.Engine, keys []uint64, doc []byte, tc *trace.Ctx) int {
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
		s.prof.observeFilter(keys, queryText(e), durNS, states)
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
