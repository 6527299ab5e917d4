package server

import (
	"time"

	xpushstream "repro"
)

// Background compaction. Subscribes and releases never recompile the
// workload: a subscribe splices its filter into the live machine
// (Engine.WithQueries), a release masks a slot. What those leave behind —
// dead slots that are still compiled in — is reclaimed here, by one
// goroutine, off both the control lock and the publish path:
//
//  1. pin the current generation and recompile its live filters into a new
//     machine (Engine.Consolidated reads only immutable engine state, so
//     publishers keep filtering on the pinned generation and subscribers keep
//     deriving from it meanwhile; every filter keeps its id);
//  2. catch up with what changed since the pin — the filters added after it
//     are spliced into the new machine in id order, which gives them the ids
//     they already have, and what was masked is masked again by id — and,
//     under ctl, swap.
//
// The new machine starts cold: the lazy machine builds its states on the
// documents that follow the swap (EXPERIMENTS.md "Compaction without
// warm-up" measured what training on recent documents saved). Ids never
// move, so nothing that holds one (the registry, the match journal, a
// publish in flight on an older generation) is touched.

// compactRemovedSlots is how many removed filter slots the engine may still
// hold compiled before a compaction reclaims them. It is also what bounds
// the machine's growth under churn: a masked filter's states ride along in
// the bottom-up sets, and the machine's tables grow until a compaction
// starts a new one. EXPERIMENTS.md has the 256/64/32 readings.
const compactRemovedSlots = 32

// compactPhases label the phase-duration summary, in Server.phaseLat order.
var compactPhases = [...]string{"compile", "swap"}

// needsCompaction reports whether e's machine holds more dead filters —
// removed slots, and filters spliced in by no generation that still has
// them (Engine.NumOrphaned: a failed training leaves one) — than the
// compaction goroutine lets it keep.
func (s *Server) needsCompaction(e *xpushstream.Engine) bool {
	return s.maxRemoved > 0 && e.NumMasked()+e.NumOrphaned() > s.maxRemoved
}

// compactLoop is the compaction goroutine: at most one compaction is ever in
// flight because only this loop runs them. A failed one waits for the next
// swap's wake-up instead of spinning.
func (s *Server) compactLoop() {
	defer s.bgWG.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.compactKick:
		}
		for !s.stopping() && s.needsCompaction(s.cur.Load()) && s.compact() {
		}
	}
}

// stopping reports whether Shutdown has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// compact runs one compaction and reports whether a new machine was swapped
// in.
// On any failure, and when the server is shutting down, the current
// generation stays.
func (s *Server) compact() bool {
	s.consolidating.Store(1)
	defer s.consolidating.Store(0)
	failed := func(what string, err error) bool {
		s.mCompactFails.Inc()
		s.logf("compaction: %s: %v", what, err)
		return false
	}
	pinned := s.cur.Load()
	t0 := time.Now()
	e, _, err := pinned.Consolidated()
	t1 := time.Now()
	s.phaseLat[0].Observe(t1.Sub(t0).Seconds())
	if err != nil {
		return failed("recompile", err)
	}

	// Re-apply what changed since the pin, under ctl so nothing changes
	// meanwhile: the delta of one recompile is a handful of filters.
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.stopping() {
		return false
	}
	cur := s.cur.Load()
	next, err := caughtUp(e, pinned, cur)
	if err != nil {
		return failed("re-applying changes since the pin", err)
	}
	s.cur.Store(next)
	now := time.Now()
	s.phaseLat[1].Observe(now.Sub(t1).Seconds())
	s.consolidations.Add(1)
	s.logf("compacted workload: %d masked -> %d masked in %v", cur.NumMasked(), next.NumMasked(), now.Sub(t0))
	return true
}

// caughtUp carries the control-plane changes made since the pin over to
// base, the pinned generation's consolidation: the filters cur added since —
// ids pinned.NumQueries() up to cur.NumQueries(), masked ones included — are
// spliced in id order, which gives them the same ids, and every id cur has
// masked is masked.
func caughtUp(base, pinned, cur *xpushstream.Engine) (*xpushstream.Engine, error) {
	var added []string
	for id := pinned.NumQueries(); id < cur.NumQueries(); id++ {
		added = append(added, cur.Query(id))
	}
	next, err := base.WithQueries(added)
	if err != nil {
		return nil, err
	}
	return next.WithoutQuery(cur.MaskedIDs()...)
}
