package server

// The control plane: workload generations (core), the boot workload, and the
// dedup registry + copy-on-write swaps behind subscribe and unsubscribe.

import (
	"bufio"
	"fmt"
	"os"

	xpushstream "repro"
	"repro/internal/afa"
	"repro/internal/xpath"
)

// deadKey marks a removed engine slot in core.keys: it is never registered
// in the dedup registry, so fan-out lookups skip it.
const deadKey = ^uint64(0)

// core is one immutable generation of the broker's workload: the compiled
// engine plus the engine-index -> registry-key translation. Workload
// changes (first compile of a canonical filter, last release, layer
// consolidation) build the next core off to the side and atomically swap
// the pointer (copy-on-write), so the publish path never observes a
// half-updated workload — it either filters on the old generation or the
// new one. Between compactions engine indexes never move: subscribes append
// slots, releases mask them.
//
// Who subscribes to a filter lives in the server's dedup registry, not
// here: subscriber fan-out changes on every subscribe/unsubscribe, while a
// core only changes when the set of unique machine queries does. keys gives
// each engine slot a stable identity across consolidations, so matches
// computed on an older generation still resolve to the right subscribers.
type core struct {
	canon   []string       // engine index -> canonical filter text
	keys    []uint64       // engine index -> stable registry key (deadKey when removed)
	removed []bool         // engine index -> released (engine skips these)
	keyIdx  map[uint64]int // live registry key -> engine index
	// keyHW is 1 + the largest registry key this generation or any before it
	// has held. Keys are handed out in increasing order and a key stays in
	// every generation from its swap to its last release, so a generation
	// holds every filter that is still live and has a key below its keyHW:
	// its matches answer for a subscriber whose keys are all below it (the
	// match journal's usability rule, see conn.pump).
	keyHW uint64

	engine *xpushstream.Engine
}

// matchKeys translates matched engine indexes of this generation to their
// stable registry keys.
func (c *core) matchKeys(matches []int) []uint64 {
	if len(matches) == 0 {
		return nil
	}
	keys := make([]uint64, len(matches))
	for i, m := range matches {
		keys[i] = c.keys[m]
	}
	return keys
}

// canonsOf returns the canonical text behind each registry key, "" for a key
// this generation no longer holds (the profiler's index-aligned column).
func (c *core) canonsOf(keys []uint64) []string {
	canons := make([]string, len(keys))
	for i, key := range keys {
		if idx, ok := c.keyIdx[key]; ok {
			canons[i] = c.canon[idx]
		}
	}
	return canons
}

// liveQueries counts engine slots that are still routable.
func (c *core) liveQueries() int {
	n := 0
	for _, r := range c.removed {
		if !r {
			n++
		}
	}
	return n
}

// bootCore builds the boot workload: from the snapshot file when warm-start
// is configured and the file exists, otherwise from InitialQueries. Every
// boot filter is registered and pinned in the dedup registry: pinned
// entries stay compiled (and keep counting as publish matches) with zero
// subscribers, and a later subscriber to the same canonical filter rides
// the already-warm machine query.
func (s *Server) bootCore() (*core, error) {
	if s.cfg.SnapshotPath != "" {
		if f, err := os.Open(s.cfg.SnapshotPath); err == nil {
			defer f.Close()
			e, err := xpushstream.OpenWorkloadSnapshot(bufio.NewReader(f), s.cfg.Engine)
			if err != nil {
				return nil, fmt.Errorf("server: warm-start from %s: %w", s.cfg.SnapshotPath, err)
			}
			q := e.Queries()
			s.logf("warm-start: restored %d filters, %d machine states from %s",
				len(q), e.Stats().States, s.cfg.SnapshotPath)
			c := &core{canon: q, removed: e.Removed(), engine: e}
			s.indexBootCore(c)
			return c, nil
		}
	}
	// Collapse duplicate boot filters onto one engine slot, canonicalizing
	// each.
	var canon []string
	seen := map[string]bool{}
	for _, q := range s.cfg.InitialQueries {
		cq, err := xpath.Canonicalize(q)
		if err != nil {
			return nil, fmt.Errorf("server: initial query %q: %w", q, err)
		}
		if seen[cq] {
			continue
		}
		seen[cq] = true
		canon = append(canon, cq)
	}
	e, err := xpushstream.Compile(canon, s.cfg.Engine)
	if err != nil {
		return nil, err
	}
	c := &core{canon: canon, removed: make([]bool, len(canon)), engine: e}
	s.indexBootCore(c)
	return c, nil
}

// indexBootCore assigns registry keys to a boot core's engine slots and
// pins the live ones.
func (s *Server) indexBootCore(c *core) {
	c.keys = make([]uint64, len(c.canon))
	c.keyIdx = make(map[uint64]int, len(c.canon))
	for i, q := range c.canon {
		if c.removed[i] {
			c.keys[i] = deadKey
			continue
		}
		// A snapshot can hold duplicate texts (one written before the
		// registry deduplicated); only the first copy of each canonical form
		// is shared, the rest stay private slots.
		_, taken := s.subs.Resolve(q)
		key := s.subs.Register(q, !taken)
		s.subs.Pin(key)
		c.keys[i] = key
		c.keyIdx[key] = i
		c.keyHW = max(c.keyHW, key+1)
	}
	s.markAnalysisDirty()
}

// subscribe registers one filter for cn and returns its subscription id
// (ids are never reused). The filter is canonicalized and looked up in the
// dedup registry: when an equivalent filter is already compiled, the
// subscription only joins its fan-out set — no engine derivation, no core
// swap. Only the first subscription to a new canonical filter compiles a
// machine query (and only the last release frees it). Durable filters are
// excluded from queue fan-out: the owner's WAL pump delivers them (see
// subscribeDurable).
func (s *Server) subscribe(cn *conn, query string, durable bool) (uint64, error) {
	canon, err := xpath.Canonicalize(query)
	if err != nil {
		return 0, fmt.Errorf("server: %w", err)
	}
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if s.draining.Load() {
		return 0, errDraining
	}
	if key, ok := s.subs.Resolve(canon); ok {
		// Dedup hit: the canonical filter is already a machine query.
		subID, _ := s.subs.Subscribe(key, cn, durable)
		cn.noteSubscribed(key, durable)
		return subID, nil
	}
	cur := s.cur.Load()
	next := &core{}
	if next.engine, err = cur.engine.WithQueries([]string{canon}); err != nil {
		return 0, err
	}
	s.tierMerges.Add(int64(cur.engine.NumLayers() + 1 - next.engine.NumLayers()))
	key := s.subs.Register(canon, true)
	next.appendSlots(cur, []string{canon}, []uint64{key})
	subID, _ := s.subs.Subscribe(key, cn, durable)
	cn.noteSubscribed(key, durable)
	s.markAnalysisDirty()
	s.swap(next)
	return subID, nil
}

// appendSlots fills c's routing columns with cur's plus one live slot per
// (canon, key) pair: c's engine is cur's with exactly those filters added.
func (c *core) appendSlots(cur *core, canons []string, keys []uint64) {
	n := len(cur.canon) + len(canons)
	c.canon = append(append(make([]string, 0, n), cur.canon...), canons...)
	c.keys = append(append(make([]uint64, 0, n), cur.keys...), keys...)
	c.removed = append(append(make([]bool, 0, n), cur.removed...), make([]bool, len(canons))...)
	c.keyIdx = make(map[uint64]int, len(cur.keyIdx)+len(keys))
	for k, v := range cur.keyIdx {
		c.keyIdx[k] = v
	}
	c.keyHW = cur.keyHW
	for i, key := range keys {
		c.keyIdx[key] = len(cur.canon) + i
		c.keyHW = max(c.keyHW, key+1)
	}
}

// swap publishes the next workload generation and wakes the compaction
// goroutine when it has outgrown its bounds. Callers hold ctl.
func (s *Server) swap(next *core) {
	s.cur.Store(next)
	if s.needsCompaction(next) {
		select {
		case s.compactKick <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// unsubscribe detaches one subscription; only the owning connection may
// remove it. The machine query is released (WithoutQuery + swap) only when
// the last subscription sharing it is gone.
func (s *Server) unsubscribe(cn *conn, id uint64) error {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	key, last, err := s.subs.Unsubscribe(id, cn)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if last {
		s.releaseKeys([]uint64{key})
	}
	return nil
}

// unsubscribeConn detaches every subscription held by a departing
// connection, releasing the machine queries that lost their last rider.
func (s *Server) unsubscribeConn(cn *conn) {
	s.ctl.Lock()
	defer s.ctl.Unlock()
	if released := s.subs.UnsubscribeOwner(cn); len(released) > 0 {
		s.releaseKeys(released)
	}
}

// releaseKeys removes the machine queries behind fully-released registry
// keys and swaps in the next core. Callers hold ctl; the registry entries
// are already gone, so on a rebuild error the old core is kept — its extra
// compiled filters still match, but fan-out finds no subscribers and skips
// them (they are reaped by a later successful swap or compaction).
func (s *Server) releaseKeys(keys []uint64) {
	cur := s.cur.Load()
	next, err := s.coreWithoutKeys(cur, keys)
	if err != nil {
		s.logf("release queries: %v", err)
		return
	}
	s.markAnalysisDirty()
	s.swap(next)
}

// coreWithoutKeys builds the next core with the given registry keys'
// filters masked, copy-on-write.
func (s *Server) coreWithoutKeys(cur *core, keys []uint64) (*core, error) {
	derived := cur.engine
	removed := append([]bool(nil), cur.removed...)
	ks := append([]uint64(nil), cur.keys...)
	keyIdx := make(map[uint64]int, len(cur.keyIdx))
	for k, v := range cur.keyIdx {
		keyIdx[k] = v
	}
	for _, key := range keys {
		idx, ok := keyIdx[key]
		if !ok {
			continue
		}
		var err error
		derived, err = derived.WithoutQuery(idx)
		if err != nil {
			return nil, err
		}
		removed[idx] = true
		ks[idx] = deadKey
		delete(keyIdx, key)
	}
	return &core{canon: cur.canon, keys: ks, removed: removed, keyIdx: keyIdx, keyHW: cur.keyHW, engine: derived}, nil
}

// markAnalysisDirty invalidates the cached subsumption-pair metric after
// the unique workload changed.
func (s *Server) markAnalysisDirty() {
	s.anMu.Lock()
	s.anDirty = true
	s.anMu.Unlock()
}

// analyzeMaxQueries bounds the quadratic subsumption analysis behind the
// xpush_workload_subsumed_pairs gauge; larger unique workloads report -1.
const analyzeMaxQueries = 512

// subsumedPairs returns the number of ordered filter pairs (i ⇒ j) among
// the unique queries where the Theorem 6.1 analysis proves subsumption —
// the headroom a subsumption-aware sharing layer could still exploit beyond
// exact equivalence. Cached until the unique workload changes.
func (s *Server) subsumedPairs() float64 {
	s.anMu.Lock()
	defer s.anMu.Unlock()
	if !s.anDirty {
		return s.anPairs
	}
	s.anDirty = false
	canons := s.subs.Canons()
	if len(canons) > analyzeMaxQueries {
		s.anPairs = -1
		return s.anPairs
	}
	filters := make([]*xpath.Filter, 0, len(canons))
	for _, q := range canons {
		f, err := xpath.Parse(q)
		if err != nil {
			continue
		}
		filters = append(filters, f)
	}
	a, err := afa.Compile(filters)
	if err != nil {
		s.anPairs = -1
		return s.anPairs
	}
	s.anPairs = float64(a.AnalyzeQueries().SubsumedPairs)
	return s.anPairs
}
