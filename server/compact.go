package server

import (
	"sync"
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
//  1. pin the current core and recompile its live filters into one machine
//     (Engine.Consolidated reads only immutable engine state, so publishers
//     keep filtering on the pinned generation and subscribers keep deriving
//     from it meanwhile);
//  2. warm the new machine on the last published documents until a pass adds
//     no states, so publishers never meet a cold base;
//  3. re-apply what changed since the pin — filters added after it become
//     one WithQueries layer, filters released after it are masked through
//     the consolidation mapping — remap the routing columns and, under ctl,
//     swap.
//
// Engine indexes move only in step 3, under ctl, and only this goroutine
// moves them; between two compactions every core's columns are a prefix of
// the next one's, which is what makes the delta in step 3 two index ranges.

// compactTailFilters is how many filter slots the layers above the base
// machine may hold before a compaction folds them into it. It trades
// machines per event (the tier rule keeps a tail this size at most three
// layers deep) against one background recompile of the live workload per
// this many new filters; EXPERIMENTS.md has the 16/32/64/128 readings.
const compactTailFilters = 32

// The recent-document ring's bounds.
const (
	ringDocs  = 16
	ringBytes = 256 << 10
)

// maxTrainPasses bounds the warm-up when every pass keeps adding states (a
// MaxStates cap flushing the tables mid-pass).
const maxTrainPasses = 4

// compactPhases label the phase-duration summary, in Server.phaseLat order.
var compactPhases = [...]string{"compile", "train", "swap"}

// docRing remembers the most recently published documents by reference: a
// PUBLISH payload is never written after its frame was read, and holding it
// costs at most ringBytes beyond what the delivery queues already pin.
type docRing struct {
	mu    sync.Mutex // publishers add concurrently
	docs  [ringDocs][]byte
	next  int // slot the next document overwrites: the oldest
	bytes int
}

func (r *docRing) add(doc []byte) {
	if len(doc) > ringBytes {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bytes += len(doc) - len(r.docs[r.next])
	r.docs[r.next] = doc
	r.next = (r.next + 1) % ringDocs
	// Over the byte bound: drop from the oldest on. The newest fits alone,
	// so this stops before reaching it.
	for i := r.next; r.bytes > ringBytes; i = (i + 1) % ringDocs {
		r.bytes -= len(r.docs[i])
		r.docs[i] = nil
	}
}

// held returns a copy of the ring's slots.
func (r *docRing) held() [ringDocs][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.docs
}

// needsCompaction reports whether c has outgrown the bounds the compaction
// goroutine holds the workload to.
func (s *Server) needsCompaction(c *core) bool {
	if c.engine.TailQueries() > compactTailFilters {
		return true
	}
	maxRemoved := s.cfg.consolidateRemoved()
	return maxRemoved > 0 && len(c.removed)-c.liveQueries() > maxRemoved
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
// On any failure, and when the server is shutting down, the current core
// stays.
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
	e, mapping, err := pinned.engine.Consolidated()
	t1 := time.Now()
	s.phaseLat[0].Observe(t1.Sub(t0).Seconds())
	if err != nil {
		return failed("recompile", err)
	}
	if s.stopping() {
		return false
	}
	s.warm(e)
	t2 := time.Now()
	s.phaseLat[1].Observe(t2.Sub(t1).Seconds())

	base := remapped(pinned, e, mapping)
	// Re-apply what changed since the pin, under ctl so nothing changes
	// meanwhile: the delta of one recompile is a handful of filters.
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.stopping() {
		return false
	}
	cur := s.cur.Load()
	next, err := s.reapplied(base, pinned, cur)
	if err != nil {
		return failed("re-applying changes since the pin", err)
	}
	s.cur.Store(next)
	now := time.Now()
	s.phaseLat[2].Observe(now.Sub(t2).Seconds())
	s.consolidateLat.Observe(now.Sub(t0).Seconds())
	s.consolidations.Add(1)
	s.logf("compacted workload: %d layers, %d slots -> %d layers, %d slots in %v",
		cur.engine.NumLayers(), len(cur.canon), next.engine.NumLayers(), len(next.canon), now.Sub(t0))
	return true
}

// warm trains a freshly consolidated engine on the recent-document ring
// until a pass creates no machine state. A document that fails to parse
// ends the warm-up early; the machine stays valid, only colder.
func (s *Server) warm(e *xpushstream.Engine) {
	var data []byte
	for _, d := range s.recent.held() {
		data = append(data, d...)
	}
	if len(data) == 0 {
		return
	}
	states := func() int { st := e.Stats(); return st.States + st.TopDownStates }
	for pass, before := 0, -1; pass < maxTrainPasses && states() != before; pass++ {
		before = states()
		if err := e.Train(data); err != nil {
			s.logf("compaction: warm-up: %v", err)
			return
		}
	}
}

// remapped is c with its engine replaced by e, c's consolidation: live slots
// move to their mapped indexes, removed ones are gone.
func remapped(c *core, e *xpushstream.Engine, mapping []int) *core {
	n := &core{
		canon:   make([]string, e.NumQueries()),
		keys:    make([]uint64, e.NumQueries()),
		removed: make([]bool, e.NumQueries()),
		keyIdx:  make(map[uint64]int, e.NumQueries()),
		keyHW:   c.keyHW,
		engine:  e,
	}
	for old, idx := range mapping {
		if idx < 0 {
			continue
		}
		n.canon[idx] = c.canon[old]
		n.keys[idx] = c.keys[old]
		n.keyIdx[n.keys[idx]] = idx
	}
	return n
}

// reapplied carries the control-plane changes made between two generations
// of the same numbering, from and its descendant cur, over to base, which
// holds from's live filters under another numbering: slots cur appended and
// still holds live are added as one layer, slots of from that cur has masked
// since are masked by registry key.
func (s *Server) reapplied(base, from, cur *core) (*core, error) {
	var canons []string
	var keys []uint64
	for i := len(from.canon); i < len(cur.canon); i++ {
		if !cur.removed[i] {
			canons = append(canons, cur.canon[i])
			keys = append(keys, cur.keys[i])
		}
	}
	if len(canons) > 0 {
		next := &core{}
		var err error
		if next.engine, err = base.engine.WithQueries(canons); err != nil {
			return nil, err
		}
		next.appendSlots(base, canons, keys)
		base = next
	}
	var released []uint64
	for i := range from.canon {
		if cur.removed[i] && !from.removed[i] {
			released = append(released, from.keys[i])
		}
	}
	if len(released) == 0 {
		return base, nil
	}
	return s.coreWithoutKeys(base, released)
}
