package server

import (
	"time"

	xpushstream "repro"
)

// Background compaction. Subscribes and releases never recompile the
// workload: a subscribe appends one small tail layer (which
// Engine.WithQueries keeps O(log n) deep by merging tail layers among
// themselves), a release masks a slot. What those leave behind — a tail that
// keeps growing, dead slots that are still compiled in — is folded into a new
// base machine here, by one goroutine, off both the control lock and the
// publish path:
//
//  1. pin the current generation and recompile its live filters into one
//     machine (Engine.Consolidated reads only immutable engine state, so
//     publishers keep filtering on the pinned generation and subscribers keep
//     deriving from it meanwhile; every filter keeps its id);
//  2. re-apply what changed since the pin — the filters added after it become
//     one WithQueries layer, which gives them the ids they already have, and
//     what was masked is masked again by id — and, under ctl, swap.
//
// The new base starts cold: the lazy machine builds its states on the
// documents that follow the swap (EXPERIMENTS.md "Compaction without
// warm-up" measured what training on recent documents saved). Ids never
// move, so nothing that holds one (the registry, the match journal, a
// publish in flight on an older generation) is touched.

// compactTailFilters is how many filter slots the layers above the base
// machine may hold before a compaction folds them into it. It trades
// machines per event (the tier rule keeps a tail this size at most three
// layers deep) against one background recompile of the live workload per
// this many new filters; EXPERIMENTS.md has the 16/32/64/128 readings.
const compactTailFilters = 32

// compactRemovedSlots is how many removed filter slots the engine may still
// hold compiled before a compaction reclaims them.
const compactRemovedSlots = 256

// compactPhases label the phase-duration summary, in Server.phaseLat order.
var compactPhases = [...]string{"compile", "swap"}

// needsCompaction reports whether e has outgrown the bounds the compaction
// goroutine holds the workload to.
func (s *Server) needsCompaction(e *xpushstream.Engine) bool {
	if e.TailQueries() > compactTailFilters {
		return true
	}
	return s.maxRemoved > 0 && e.NumMasked() > s.maxRemoved
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

// compact runs one compaction and reports whether a new base was swapped in.
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
	s.consolidateLat.Observe(now.Sub(t0).Seconds())
	s.consolidations.Add(1)
	s.logf("compacted workload: %d layers, %d masked -> %d layers, %d masked in %v",
		cur.NumLayers(), cur.NumMasked(), next.NumLayers(), next.NumMasked(), now.Sub(t0))
	return true
}

// caughtUp carries the control-plane changes made since the pin over to
// base, the pinned generation's consolidation: the filters cur added since —
// ids pinned.NumQueries() up to cur.NumQueries(), masked ones included — are
// added in id order as one layer, which gives them the same ids, and every
// id cur has masked is masked.
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
