package server

// The control plane: workload generations, the boot workload, and the dedup
// registry + copy-on-write swaps behind subscribe and unsubscribe.

import (
	"bufio"
	"fmt"
	"os"

	xpushstream "repro"
	"repro/internal/afa"
	"repro/internal/xpath"
)

// Workload generations: s.cur holds the engine publishers filter on, one
// immutable generation of the broker's workload. Workload changes (first
// compile of a canonical filter, last release, compaction) derive the next
// engine off to the side and atomically swap the pointer (copy-on-write), so
// the publish path never observes a half-updated workload — it either
// filters on the old generation or the new one.
//
// The engine's filter ids are the dedup registry's keys: a filter is
// registered under the id the engine gave it, and an id never moves or comes
// back, Consolidated included, so matches computed on any generation name
// their registry entries directly. Who subscribes to a filter lives in the
// registry, not in the engine: subscriber fan-out changes on every
// subscribe/unsubscribe, while the engine only changes when the set of
// unique machine queries does.
//
// A generation's NumQueries is its keyHW: every key below it was handed out
// by that generation or an ancestor, and an id leaves the workload only
// after its key was released, so a generation holds every live filter with
// a key below its NumQueries. Its matches therefore answer for a subscriber
// whose keys are all below it (the match journal's usability rule, see
// conn.pump).

// bootEngine builds the boot workload (openBoot) and registers and pins each
// of its filters under its engine id: pinned entries stay compiled (and keep
// counting as publish matches) with zero subscribers, and a later subscriber
// to the same canonical filter rides the already-warm machine query.
func (s *Server) bootEngine() (*xpushstream.Engine, error) {
	e, err := s.openBoot()
	if err != nil {
		return nil, err
	}
	for _, id := range e.IDs() {
		// A snapshot can hold duplicate texts (one written before the
		// registry deduplicated); only the first copy of each canonical form
		// is shared, the rest stay private slots.
		q := e.Query(id)
		_, taken := s.subs.Resolve(q)
		s.subs.Pin(s.subs.RegisterKey(uint64(id), q, !taken))
	}
	s.markAnalysisDirty()
	return e, nil
}

// openBoot compiles the boot workload: from the snapshot file when
// warm-start is configured and the file exists, otherwise from
// InitialQueries, canonicalized, with duplicates collapsed onto one filter.
func (s *Server) openBoot() (*xpushstream.Engine, error) {
	if s.cfg.SnapshotPath != "" {
		if f, err := os.Open(s.cfg.SnapshotPath); err == nil {
			defer f.Close()
			e, err := xpushstream.OpenWorkloadSnapshot(bufio.NewReader(f), s.cfg.Engine)
			if err != nil {
				return nil, fmt.Errorf("server: warm-start from %s: %w", s.cfg.SnapshotPath, err)
			}
			s.logf("warm-start: restored %d filters, %d machine states from %s",
				len(e.IDs()), e.Stats().States, s.cfg.SnapshotPath)
			return e, nil
		}
	}
	var canon []string
	seen := map[string]bool{}
	for _, q := range s.cfg.InitialQueries {
		cq, err := xpath.Canonicalize(q)
		if err != nil {
			return nil, fmt.Errorf("server: initial query %q: %w", q, err)
		}
		if !seen[cq] {
			seen[cq] = true
			canon = append(canon, cq)
		}
	}
	return xpushstream.Compile(canon, s.cfg.Engine)
}

// subscribe registers one filter for cn and returns its subscription id
// (ids are never reused). The filter is canonicalized and looked up in the
// dedup registry: when an equivalent filter is already compiled, the
// subscription only joins its fan-out set — no engine derivation, no swap.
// Only the first subscription to a new canonical filter compiles a machine
// query, registered under the id the engine gives it (and only the last
// release frees it). Durable filters are excluded from queue fan-out: the
// owner's WAL pump delivers them (see subscribeDurable).
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
	next, err := cur.WithQueries([]string{canon})
	if err != nil {
		return 0, err
	}
	key := s.subs.RegisterKey(uint64(cur.NumQueries()), canon, true)
	subID, _ := s.subs.Subscribe(key, cn, durable)
	cn.noteSubscribed(key, durable)
	s.markAnalysisDirty()
	s.swap(next)
	return subID, nil
}

// swap publishes the next workload generation and wakes the compaction
// goroutine when it has outgrown its bounds. Callers hold ctl.
func (s *Server) swap(next *xpushstream.Engine) {
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

// releaseKeys masks the machine queries behind fully-released registry keys
// and swaps in the next generation. Callers hold ctl; the registry entries
// are already gone, so on an error the old generation is kept — its extra
// compiled filters still match, but fan-out finds no subscribers and skips
// them.
func (s *Server) releaseKeys(keys []uint64) {
	ids := make([]int, len(keys))
	for i, k := range keys {
		ids[i] = int(k)
	}
	next, err := s.cur.Load().WithoutQuery(ids...)
	if err != nil {
		s.logf("release queries: %v", err)
		return
	}
	s.markAnalysisDirty()
	s.swap(next)
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
