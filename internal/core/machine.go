// Package core implements the XPush Machine of the paper (Sec. 3-5): a
// single deterministic pushdown automaton, lazily constructed at runtime,
// that evaluates an entire workload of XPath filters over a stream of SAX
// events in O(1) time per event.
//
// A bottom-up state q^b is a set of AFA states — the states that have
// matched the current XML node so far; a top-down state q^t (when top-down
// pruning is enabled) is the set of enabled AFA states. Both are interned as
// sorted arrays with 64-bit signatures (Sec. 4). The six transition
// functions tpush, tvalue, tpop, tbadd, ttadd, taccept are realised as
// lazily filled hash tables; the paper's "hit ratio" statistic counts their
// lookups.
//
// Deviations from the paper's Fig. 2 pseudo-code are deliberate and
// documented in DESIGN.md:
//
//   - text(str) merges the value state into q^b instead of overwriting it,
//     so documents mixing attributes and text (<a c="2"> 1 </a>, which
//     Sec. 3.2 requires to work) are handled;
//   - purely structural sub-filters use TrueTerminal states that are
//     injected into eval at every endElement instead of being stored in
//     states;
//   - the no-mixed-content pruning of Sec. 3.2 is unnecessary under lazy
//     construction (states that never occur are never built), so mixed
//     content is processed with union semantics and merely counted; a
//     strict mode reports it as an error.
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/afa"
	"repro/internal/predindex"
	"repro/internal/sax"
	"repro/internal/xmlval"
)

// Order is the sibling partial order consumed by the order optimization
// (satisfied by *dtd.Order).
type Order interface {
	Precedes(a, b string) bool
}

// Options selects the optimizations of Sec. 5.
type Options struct {
	// TopDown enables top-down pruning: bottom-up computation starts only
	// at branches enabled by the downward navigation.
	TopDown bool
	// Order, when non-nil, enables the order optimization using the
	// sibling partial order (usually derived from a DTD).
	Order Order
	// Early enables early notification: a filter is reported as soon as
	// its first branching state matches, and its states are dropped from
	// subsequent XPush states. Implies TopDown (required for
	// correctness, Sec. 5). Firings only count for states enabled in the
	// current top-down state, and with descendant axes in the workload
	// the machine additionally intersects the bottom-up state with the
	// top-down state after every pop — the two halves of the paper's
	// "intersect bottom-up with top-down" correction. Filters whose
	// first branching state can fire through a not(...) branch opt out
	// entirely (see afa.QueryInfo.Early).
	Early bool
	// PrecomputeValues eagerly computes the atomic predicate index's
	// point-interval value states (Sec. 4, "State Precomputation"). Only
	// effective without TopDown: with top-down pruning, value states
	// depend on the top-down state and cannot be precomputed — exactly
	// the deficiency the paper observes for TD in isolation — but
	// training regenerates them.
	PrecomputeValues bool
	// StrictMixedContent makes mixed element/text content an error
	// reported by Err; by default it is processed with union semantics
	// and counted in Stats.
	StrictMixedContent bool
	// MaxStates, when positive, caps the number of interned bottom-up
	// states: at the next document boundary past the cap, all lazily
	// built states and tables are flushed ("equivalent to flushing an
	// entire cache", Sec. 8). Zero means unlimited. A flush invalidates
	// every state id, so it waits for a boundary at which no other
	// document is in flight on the machine; until then the tables
	// overshoot the cap by what the documents in flight add.
	MaxStates int
}

// Stats exposes the machine's runtime counters, which drive every figure of
// the paper's evaluation section.
type Stats struct {
	// BStates and TStates count interned bottom-up / top-down states.
	BStates int
	TStates int
	// BStateAFASum is the total number of AFA states across all interned
	// bottom-up states; BStateAFASum/BStates is the paper's "average
	// size of each state" (Figs. 7 and 11).
	BStateAFASum int64
	// Lookups and Hits count transition-table lookups and successful
	// ones (Fig. 8's hit ratio).
	Lookups, Hits int64
	// Docs and Events count processed documents and SAX events.
	Docs, Events int64
	// Matches counts reported (document, filter) match pairs.
	Matches int64
	// MixedContentEvents counts violations of the no-mixed-content
	// assumption.
	MixedContentEvents int64
	// Flushes counts MaxStates cache flushes.
	Flushes int64
	// ExclusiveDocs counts the documents that took the write lock (a table
	// miss, a string-function predicate, a flush) and ran alone from there
	// on; the other Docs ran on shared, read-locked tables throughout.
	ExclusiveDocs int64
}

// counters holds the machine's runtime counters. Every cursor adds to them
// (per document, not per event — see pendEvents) and Stats reads them
// concurrently (e.g. a /metrics scrape of a live broker), so they are atomic.
type counters struct {
	bstates, tstates atomic.Int64
	bstateAFASum     atomic.Int64
	lookups, hits    atomic.Int64
	docs, events     atomic.Int64
	matches          atomic.Int64
	mixed            atomic.Int64
	flushes          atomic.Int64
	exclusive        atomic.Int64
}

// AvgStateSize returns the mean number of AFA states per XPush state.
func (s Stats) AvgStateSize() float64 {
	if s.BStates == 0 {
		return 0
	}
	return float64(s.BStateAFASum) / float64(s.BStates)
}

// HitRatio returns Hits/Lookups.
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// entry is a transition-table value: the resulting state plus the filter
// oids whose early state fired while computing it.
type entry struct {
	state int32
	early []int32
}

// frame is one open element on the machine's stack: the parent's states and
// content flags to restore at the close tag, and the element's own symbol.
type frame struct {
	qt, qb       int32
	sym          int32
	sawText      bool
	sawElemChild bool
}

// Machine is a lazy XPush machine: the warm tables (shared) plus one cursor
// over them. It implements sax.BytesHandler: names and text arrive as
// borrowed bytes, so the warm path allocates no string per event. One
// Machine value serves one stream at a time; any number of them — New's and
// the cursors ForkStack makes from it — filter documents concurrently over
// the same tables.
//
// Locking is per document (DESIGN.md "One machine, many cursors"):
// StartDocument takes the read lock, and a warm document reads tables and
// writes only its cursor. The first probe that misses trades the read lock
// for the write lock (upgrade) and the rest of that document runs alone;
// EndDocument releases whichever is held. State ids index the append-only
// bsets/tsets, so a cursor's ids stay valid while it waits for the write
// lock; only a MaxStates flush invalidates them (Options.MaxStates).
type Machine struct {
	*shared
	cursor
}

// shared is what every cursor over one machine reads, and writes only under
// mu's write lock.
type shared struct {
	// mu guards every field below down to scratch2. A layer stacked on a
	// base machine (StackOn) uses the base's lock: with a lock per layer, two
	// documents upgrading on different layers would wait on each other's
	// read locks.
	mu *sync.RWMutex
	// inflight counts the documents that may hold state ids, for the flush;
	// kept only under a MaxStates cap.
	inflight atomic.Int32

	afa   *afa.AFA
	opts  Options
	ev    *afa.Evaluator
	index *predindex.Index

	// Interned states. Id 0 is the empty bottom-up state q0^b and the
	// initial top-down state q0^t respectively. The intern indexes are
	// flat signature tables (table.go).
	bsets   [][]int32
	bintern internTab
	baccept [][]int32
	tsets   [][]int32
	tintern internTab
	ttOf    [][]int32 // per top-down state: enabled TrueTerminals

	// Transition tables: open-addressing flat tables on packed integer
	// keys (table.go), preserving the lazy-fill and MaxStates flush
	// semantics of the former map implementation.
	pushTab  tab64 // packPush(qt, sym) -> qt'
	popTab   tabE  // packPop(qb, qt, sym) -> entry
	addTab   tab64 // packAdd(qbs, qaux) -> qb'
	valueTab tabE  // packValue(qt, interval) -> entry
	sectTab  tab64 // packAdd(qaux, qt) -> qb'

	isEarly     []bool // per AFA state
	needIsect   bool   // early + descendant: intersect after pops
	earlyOn     bool
	trueTermAll []int32
	// invisible has bit s set for each sentinel symbol s (SymOtherElem,
	// SymOtherAttr) on which no transition fires: Resolve reports such an
	// element or attribute invisible. It is 0 under StrictMixedContent.
	invisible uint8

	// Miss-path scratch: used only while computing a transition, i.e. under
	// the write lock.
	scratch  []int32
	scratch2 []int32

	ctr counters
}

// stream is the lock state of one document stream, shared by its cursors on
// the layers of a stack: the lock is taken when the first of them enters a
// document and dropped when the last one leaves.
type stream struct {
	in   int  // cursors inside a document
	excl bool // the write lock is held (the read lock otherwise, while in > 0)
}

// cursor is one stream's position in the machine: everything the event loop
// writes on a table hit.
type cursor struct {
	st      *stream
	qt, qb  int32
	stack   []frame
	cur     frame // flags of the current element
	matched []bool
	results []int32
	inDoc   bool // between StartDocument and Release: counted in st.in
	err     error

	training bool

	// Per-event counters are batched in plain locals and flushed to the
	// atomics at document boundaries: an atomic RMW per SAX event would
	// dominate the O(1) per-event work the tables buy, and would bounce a
	// cache line between concurrent cursors. Stats() read between document
	// boundaries lags by at most the in-flight documents' worth of
	// events/lookups/hits.
	pendEvents  int64
	pendLookups int64
	pendHits    int64

	// bscan is the reusable byte-level scanner behind Run, FilterDocument
	// and Train; holding it here keeps its internal buffers warm across
	// documents.
	bscan sax.ByteScanner

	// OnDocument, when set, receives the sorted oids of matching filters
	// at every endDocument.
	OnDocument func(matches []int32)
}

// New builds a lazy XPush machine for a compiled AFA. The machine takes
// ownership of the AFA (ApplyOrder mutates it).
func New(a *afa.AFA, opts Options) *Machine {
	if opts.Early {
		opts.TopDown = true // required for correctness (Sec. 5)
	}
	m := &Machine{shared: &shared{
		mu:   new(sync.RWMutex),
		afa:  a,
		opts: opts,
		ev:   a.NewEvaluator(),
	}}
	m.cursor = newCursor(m.shared, new(stream))
	b := predindex.NewBuilder()
	a.EachLeafTerminal(func(s int32, op xmlval.Op, c xmlval.Const) {
		b.Add(s, op, c)
	})
	m.index = b.Build()
	if opts.Order != nil {
		a.ApplyOrder(opts.Order)
	}
	m.isEarly = make([]bool, a.NumStates())
	for _, q := range a.Queries {
		if q.Early >= 0 {
			m.isEarly[q.Early] = true
		}
	}
	m.earlyOn = opts.Early
	m.needIsect = opts.Early && a.HasDescendant()
	m.trueTermAll = a.TrueTerminals()
	for _, sym := range []int32{afa.SymOtherElem, afa.SymOtherAttr} {
		if !opts.StrictMixedContent && !a.FiresOn(sym) {
			m.invisible |= 1 << sym
		}
	}
	defer m.exclusive()()
	m.reset()
	return m
}

func newCursor(sh *shared, st *stream) cursor {
	return cursor{st: st, matched: make([]bool, len(sh.afa.Queries))}
}

// ForkStack returns a fresh cursor over each of the given machines — a base
// and the layers stacked on it (StackOn), or a single machine — for one more
// concurrent stream. The cursors share one lock state: drive them in
// lockstep, every event to each in order.
func ForkStack(layers []*Machine) []*Machine {
	st := new(stream)
	out := make([]*Machine, len(layers))
	for i, m := range layers {
		out[i] = &Machine{shared: m.shared, cursor: newCursor(m.shared, st)}
	}
	return out
}

// StackOn makes m a layer over base: from here on m's tables are guarded by
// base's lock, and m must only run in a stack that base is part of. Call it
// before m is shared.
func (m *Machine) StackOn(base *Machine) { m.mu = base.mu }

// upgrade is called after a table probe missed, before the transition is
// computed and stored. Unless the stream holds the write lock already, it
// trades its read lock for it and reports true: another document may have
// stored the entry meanwhile, so the caller probes once more.
func (m *Machine) upgrade() bool {
	if m.st.excl {
		return false
	}
	m.mu.RUnlock()
	m.mu.Lock()
	m.st.excl = true
	m.ctr.exclusive.Add(1)
	return true
}

// exclusive takes the write lock for filling tables outside any document
// (the machine's own stream must not be inside one) and returns the unlock.
func (m *Machine) exclusive() (unlock func()) {
	m.mu.Lock()
	m.st.excl = true
	return func() { m.st.excl = false; m.mu.Unlock() }
}

// Release leaves the current document, dropping the stream's lock with its
// last cursor. EndDocument calls it; whoever drives the machine calls it
// after a parse that failed, which ends a stream mid-document with the lock
// still held. Outside a document it does nothing.
func (m *Machine) Release() {
	if !m.inDoc {
		return
	}
	m.inDoc = false
	if m.opts.MaxStates > 0 {
		m.inflight.Add(-1)
	}
	if m.st.in--; m.st.in > 0 {
		return
	}
	if m.st.excl {
		m.st.excl = false
		m.mu.Unlock()
	} else {
		m.mu.RUnlock()
	}
}

// reset drops all lazily built states and tables (the cache-flush of
// Sec. 8's update discussion and of the MaxStates cap). It invalidates every
// state id: callers hold the write lock with no other document in flight.
func (m *Machine) reset() {
	m.bsets = [][]int32{nil}
	m.bintern = internTab{}
	m.baccept = [][]int32{nil}
	m.tsets = [][]int32{nil}
	m.tintern = internTab{}
	m.ttOf = [][]int32{nil}
	if m.opts.TopDown {
		m.tsets[0] = m.afa.Initials()
		m.ttOf[0] = intersectSorted(m.trueTermAll, m.tsets[0], nil)
	} else {
		m.ttOf[0] = m.trueTermAll
	}
	m.pushTab = tab64{}
	m.popTab = tabE{}
	m.addTab = tab64{}
	m.valueTab = tabE{}
	m.sectTab = tab64{}
	m.ctr.bstates.Store(1)
	m.ctr.tstates.Store(1)
	m.ctr.bstateAFASum.Store(0)
	if m.opts.PrecomputeValues && !m.opts.TopDown {
		for _, v := range m.index.Representatives() {
			m.valueState(0, v)
		}
		// Precomputation lookups happen outside any document; publish
		// them now so they are not attributed to the next document.
		m.flushPending()
	}
}

// Counters returns the three counters the tracing layer reads at document
// boundaries to compute per-document deltas (span attributes): bottom-up
// states, table flushes and events. It reads three atomics, cheap enough to
// call twice per traced document.
func (m *Machine) Counters() (bstates, flushes, events int64) {
	return m.ctr.bstates.Load(), m.ctr.flushes.Load(), m.ctr.events.Load()
}

// Stats returns a snapshot of the runtime counters. It is safe to call
// concurrently with filtering (the snapshot is per-counter consistent, not
// globally consistent — fine for monitoring). Hits are read before Lookups,
// which flushPending publishes first, so a snapshot never holds more hits
// than lookups.
func (m *Machine) Stats() Stats {
	hits := m.ctr.hits.Load()
	return Stats{
		BStates:            int(m.ctr.bstates.Load()),
		TStates:            int(m.ctr.tstates.Load()),
		BStateAFASum:       m.ctr.bstateAFASum.Load(),
		Lookups:            m.ctr.lookups.Load(),
		Hits:               hits,
		Docs:               m.ctr.docs.Load(),
		Events:             m.ctr.events.Load(),
		Matches:            m.ctr.matches.Load(),
		MixedContentEvents: m.ctr.mixed.Load(),
		Flushes:            m.ctr.flushes.Load(),
		ExclusiveDocs:      m.ctr.exclusive.Load(),
	}
}

// Err reports the first strict-mode violation encountered, if any.
func (m *Machine) Err() error { return m.err }

// Results returns the match oids of the most recently completed document.
func (m *Machine) Results() []int32 { return m.results }

// NumQueries returns the workload size.
func (m *Machine) NumQueries() int { return len(m.afa.Queries) }

// internB interns a sorted AFA-state set as a bottom-up state.
func (m *Machine) internB(set []int32) int32 {
	if len(set) == 0 {
		return 0
	}
	h := hashIDs(set)
	if id := m.bintern.lookup(h, func(id int32) bool { return equalIDs(m.bsets[id], set) }); id >= 0 {
		return id
	}
	cp := make([]int32, len(set))
	copy(cp, set)
	id := int32(len(m.bsets))
	m.bsets = append(m.bsets, cp)
	m.baccept = append(m.baccept, nil)
	m.bintern.add(h, id)
	m.ctr.bstates.Add(1)
	m.ctr.bstateAFASum.Add(int64(len(set)))
	return id
}

// internT interns a sorted AFA-state set as a top-down state and caches its
// enabled TrueTerminal subset. Unlike bottom-up states, the empty set is NOT
// id 0: id 0 is the initial state q0^t, which is non-empty under top-down
// pruning.
func (m *Machine) internT(set []int32) int32 {
	if equalIDs(set, m.tsets[0]) {
		return 0
	}
	h := hashIDs(set)
	if id := m.tintern.lookup(h, func(id int32) bool { return equalIDs(m.tsets[id], set) }); id >= 0 {
		return id
	}
	cp := make([]int32, len(set))
	copy(cp, set)
	id := int32(len(m.tsets))
	m.tsets = append(m.tsets, cp)
	m.ttOf = append(m.ttOf, intersectSorted(m.trueTermAll, cp, nil))
	m.tintern.add(h, id)
	m.ctr.tstates.Add(1)
	return id
}

// flushPending publishes the batched per-event counters to the atomics.
// Called at document boundaries and after every parse, so concurrent
// Stats() readers lag by at most the in-flight document.
func (m *Machine) flushPending() {
	if m.pendEvents != 0 {
		m.ctr.events.Add(m.pendEvents)
		m.pendEvents = 0
	}
	if m.pendLookups != 0 {
		m.ctr.lookups.Add(m.pendLookups)
		m.pendLookups = 0
	}
	if m.pendHits != 0 {
		m.ctr.hits.Add(m.pendHits)
		m.pendHits = 0
	}
}

// StartDocument implements sax.BytesHandler.
func (m *Machine) StartDocument() {
	m.Release() // a stream whose last document failed to parse
	m.flushPending()
	if m.st.in == 0 {
		m.mu.RLock()
	}
	m.st.in++
	m.inDoc = true
	if m.opts.MaxStates > 0 {
		if len(m.bsets) > m.opts.MaxStates {
			// Under the write lock no other document is reading; one parked
			// in its own upgrade still holds ids, and puts the flush off.
			if m.upgrade(); len(m.bsets) > m.opts.MaxStates && m.inflight.Load() == 0 {
				m.reset()
				m.ctr.flushes.Add(1)
			}
		}
		m.inflight.Add(1)
	}
	m.qt, m.qb = 0, 0
	m.stack = m.stack[:0]
	m.cur = frame{}
	for i := range m.matched {
		m.matched[i] = false
	}
	m.results = m.results[:0]
	m.pendEvents++
	m.ctr.docs.Add(1)
}

// StartElementBytes implements sax.BytesHandler (the tpush transition); the
// symbol is resolved straight from the borrowed name bytes.
func (m *Machine) StartElementBytes(name []byte) {
	m.Start(m.afa.Syms.InputSymBytes(name))
}

// Resolve maps a start tag's name to the machine's input symbol, for Start
// or Skip, and reports whether the element or attribute it opens is
// invisible: its label occurs in no filter and no wildcard edge can fire on
// it, so its whole subtree ends in q0^b whatever it holds (DESIGN.md
// "Skipping what no filter can see"). Never true under StrictMixedContent.
func (m *Machine) Resolve(name []byte) (sym int32, invisible bool) {
	sym = m.afa.Syms.InputSymBytes(name)
	return sym, m.invisible>>uint32(sym)&1 != 0 // 0 for sym >= 8
}

// Skip stands in for the whole subtree of a start tag that Resolve reported
// invisible: the machine records that an element child occurred (an
// attribute leaves no trace) and nothing else. The caller delivers no event
// of the subtree, its close tag included.
func (m *Machine) Skip(sym int32) {
	m.pendEvents++
	if sym == afa.SymOtherElem {
		m.elemChild()
	}
}

// elemChild records that the current element has an element child.
func (m *Machine) elemChild() {
	if m.cur.sawText {
		m.mixedContent()
	}
	m.cur.sawElemChild = true
}

// Start processes a start tag that Resolve mapped to sym (the tpush
// transition).
func (m *Machine) Start(sym int32) {
	m.pendEvents++
	if !m.afa.Syms.IsAttr(sym) {
		m.elemChild()
	}
	m.stack = append(m.stack, frame{qt: m.qt, qb: m.qb, sym: sym, sawText: m.cur.sawText, sawElemChild: m.cur.sawElemChild})
	m.cur = frame{}
	if m.opts.TopDown {
		m.qt = m.pushState(m.qt, sym)
	}
	m.qb = 0
}

// pushState computes tpush(qt, sym) = close({δ(s, sym) | s ∈ qt}) lazily.
func (m *Machine) pushState(qt, sym int32) int32 {
	key := packPush(qt, sym)
	m.pendLookups++
	for retry := true; retry; retry = m.upgrade() {
		if id, ok := m.pushTab.get(key); ok {
			m.pendHits++
			return id
		}
	}
	m.scratch = m.scratch[:0]
	for _, s := range m.tsets[qt] {
		m.scratch = m.afa.Delta(s, sym, m.scratch)
	}
	slices.Sort(m.scratch)
	closed := m.ev.CloseEps(dedupSorted(m.scratch))
	id := m.internT(closed)
	m.pushTab.put(key, id)
	return id
}

// TextBytes implements sax.BytesHandler (the tvalue transition, merged into
// q^b); the Value borrows the scanner's buffer and is consumed before the
// callback returns.
func (m *Machine) TextBytes(data []byte) {
	m.text(xmlval.NewBytes(data))
}

func (m *Machine) text(v xmlval.Value) {
	m.pendEvents++
	if m.cur.sawElemChild {
		m.mixedContent()
	}
	m.cur.sawText = true
	vb := m.valueState(m.qt, v)
	if vb != 0 {
		m.qb = m.addStates(m.qb, vb)
	}
}

// valueState computes tvalue(qt, v): the interned state of leaf terminals
// whose predicate holds on v (restricted to enabled states under top-down
// pruning).
func (m *Machine) valueState(qt int32, v xmlval.Value) int32 {
	// contains/starts-with depend on the text, not its interval: with any in
	// the workload every value state is computed afresh (and index.Match
	// fills an unsynchronised cache), so its documents run exclusive from
	// their first text node on.
	cacheable := !m.index.HasStringFuncs()
	var key key128
	if cacheable {
		key = packValue(qt, m.index.IntervalKey(v))
		m.pendLookups++
		for retry := true; retry; retry = m.upgrade() {
			if e, ok := m.valueTab.get(key); ok {
				m.pendHits++
				m.recordEarly(e.early)
				return e.state
			}
		}
	} else {
		m.upgrade()
	}
	ids := m.index.Match(v)
	if m.opts.TopDown {
		m.scratch = intersectSorted(ids, m.tsets[qt], m.scratch[:0])
		ids = m.scratch
	}
	e := m.stripEarly(ids)
	if len(e.early) > 0 {
		// Intern without the matched filters' states.
		e.state = m.internB(m.scratch2)
	} else {
		e.state = m.internB(ids)
	}
	if cacheable {
		m.valueTab.put(key, e)
	}
	m.recordEarly(e.early)
	return e.state
}

// stripEarly scans a set for early states; when any fire, it writes the set
// minus all states of the matched filters into m.scratch2 and returns their
// oids.
func (m *Machine) stripEarly(set []int32) entry {
	if !m.earlyOn {
		return entry{}
	}
	var oids []int32
	for _, s := range set {
		if m.isEarly[s] {
			oids = insertSorted(oids, m.afa.QueryOf(s))
		}
	}
	if len(oids) == 0 {
		return entry{}
	}
	m.scratch2 = m.scratch2[:0]
	for _, s := range set {
		if !containsSorted(oids, m.afa.QueryOf(s)) {
			m.scratch2 = append(m.scratch2, s)
		}
	}
	return entry{early: oids}
}

func (m *Machine) recordEarly(oids []int32) {
	for _, q := range oids {
		if !m.matched[q] {
			m.matched[q] = true
			m.results = append(m.results, q)
		}
	}
}

// EndElementBytes implements sax.BytesHandler (tpop followed by
// tbadd/ttadd). The name is not looked up a second time: sax.ByteScanner rejects a close tag that does not repeat the
// open tag's name, so the symbol stacked by StartElementBytes is the one
// the name would resolve to.
func (m *Machine) EndElementBytes([]byte) {
	sym := int32(0) // unused on an empty stack, which endElement ignores
	if n := len(m.stack); n > 0 {
		sym = m.stack[n-1].sym
	}
	m.endElement(sym)
}

func (m *Machine) endElement(sym int32) {
	m.pendEvents++
	if len(m.stack) == 0 {
		// Malformed event sequence (only possible via Drive on
		// hand-built events; the scanner guarantees balance).
		return
	}
	qaux := m.popState(m.qb, m.qt, sym)
	top := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	if m.needIsect && qaux != 0 && top.qt != 0 {
		qaux = m.intersectState(qaux, top.qt)
	}
	m.qt = top.qt // ttadd(qt_s, qaux) = qt_s
	m.qb = m.addStates(top.qb, qaux)
	m.cur = frame{sawText: top.sawText, sawElemChild: top.sawElemChild}
}

// popState computes tpop(qb, sym) = δ⁻¹(eval(qb ∪ TT_enabled), sym) lazily.
// The top-down state participates in the key because the TrueTerminal
// injection depends on it.
func (m *Machine) popState(qb, qt, sym int32) int32 {
	key := packPop(qb, qt, sym)
	m.pendLookups++
	for retry := true; retry; retry = m.upgrade() {
		if e, ok := m.popTab.get(key); ok {
			m.pendHits++
			m.recordEarly(e.early)
			return e.state
		}
	}
	evaled := m.ev.Eval(m.bsets[qb], m.ttOf[qt])
	res := m.afa.DeltaInv(evaled, sym, m.scratch[:0])
	m.scratch = res
	var e entry
	if m.earlyOn {
		// Early states become true in the eval closure; scan it. A
		// firing counts only when the state is enabled in the current
		// top-down state: eval adds NOT states (and AND states whose
		// conjuncts include position-sloppy descendant branches) at
		// arbitrary nodes, and qt membership is what pins the firing
		// to a node that actually matches the filter's navigation —
		// the bottom-up ∩ top-down correction of Sec. 5.
		for _, s := range evaled {
			if m.isEarly[s] && containsSorted(m.tsets[qt], s) {
				e.early = insertSorted(e.early, m.afa.QueryOf(s))
			}
		}
		if len(e.early) > 0 {
			m.scratch2 = m.scratch2[:0]
			for _, s := range res {
				if !containsSorted(e.early, m.afa.QueryOf(s)) {
					m.scratch2 = append(m.scratch2, s)
				}
			}
			res = m.scratch2
		}
	}
	e.state = m.internB(res)
	m.popTab.put(key, e)
	m.recordEarly(e.early)
	return e.state
}

// intersectState implements the early-notification descendant fix: keep only
// the bottom-up states enabled in the parent's top-down state.
func (m *Machine) intersectState(qaux, qt int32) int32 {
	key := packAdd(qaux, qt)
	m.pendLookups++
	for retry := true; retry; retry = m.upgrade() {
		if id, ok := m.sectTab.get(key); ok {
			m.pendHits++
			return id
		}
	}
	out := intersectSorted(m.bsets[qaux], m.tsets[qt], m.scratch[:0])
	m.scratch = out
	id := m.internB(out)
	m.sectTab.put(key, id)
	return id
}

// addStates computes tbadd(qbs, qaux) = qbs ∪ qaux lazily, with the order
// optimization's filter {s ∈ qaux | prec(s) ⊆ qbs} when enabled.
func (m *Machine) addStates(qbs, qaux int32) int32 {
	if qaux == 0 {
		return qbs
	}
	if qbs == 0 && m.opts.Order == nil {
		return qaux
	}
	key := packAdd(qbs, qaux)
	m.pendLookups++
	for retry := true; retry; retry = m.upgrade() {
		if id, ok := m.addTab.get(key); ok {
			m.pendHits++
			return id
		}
	}
	b := m.bsets[qbs]
	add := m.bsets[qaux]
	if m.opts.Order != nil {
		m.scratch2 = m.scratch2[:0]
		for _, s := range add {
			if p := m.afa.Prec(s); len(p) == 0 || subsetOfSorted(p, b) {
				m.scratch2 = append(m.scratch2, s)
			}
		}
		add = m.scratch2
	}
	out := unionSorted(b, add, m.scratch[:0])
	m.scratch = out
	id := m.internB(out)
	m.addTab.put(key, id)
	return id
}

// EndDocument implements sax.BytesHandler (taccept plus early matches).
func (m *Machine) EndDocument() {
	m.pendEvents++
	for _, q := range m.acceptOf(m.qb) {
		if !m.matched[q] {
			m.matched[q] = true
			m.results = append(m.results, q)
		}
	}
	slices.Sort(m.results)
	m.ctr.matches.Add(int64(len(m.results)))
	m.flushPending()
	m.Release()
	if m.OnDocument != nil && !m.training {
		m.OnDocument(m.results)
	}
}

// acceptOf computes taccept(qb): the oids whose initial AFA state is in the
// set. Results are cached per state.
func (m *Machine) acceptOf(qb int32) []int32 {
	if qb == 0 {
		return nil
	}
	for retry := true; retry; retry = m.upgrade() {
		if acc := m.baccept[qb]; acc != nil {
			return acc
		}
	}
	m.baccept[qb] = m.accepting(m.bsets[qb])
	return m.baccept[qb]
}

// accepting computes the sorted oids whose initial AFA state is in the
// bottom-up state set (never nil, so a cached empty list reads as cached).
// The caller holds the write lock.
func (m *Machine) accepting(set []int32) []int32 {
	m.scratch = intersectSorted(set, m.afa.Initials(), m.scratch[:0])
	if len(m.scratch) == 0 {
		return emptyAccept
	}
	acc := make([]int32, 0, len(m.scratch))
	for _, s := range m.scratch {
		acc = append(acc, m.afa.QueryOf(s))
	}
	slices.Sort(acc)
	return acc
}

var emptyAccept = make([]int32, 0)

func (m *Machine) mixedContent() {
	m.ctr.mixed.Add(1)
	if m.opts.StrictMixedContent && m.err == nil {
		m.err = fmt.Errorf("xpush: mixed element/text content encountered (document %d)", m.ctr.docs.Load())
	}
}

// Run streams one or more concatenated XML documents through the machine.
// Match sets are delivered via OnDocument. Parsing goes through the
// machine's reusable byte scanner, so a warmed machine runs the whole
// document without heap allocation.
func (m *Machine) Run(data []byte) error {
	err := m.parse(data)
	if err != nil {
		return err
	}
	return m.err
}

// parse runs data through the machine's own scanner and cursor.
func (m *Machine) parse(data []byte) error {
	err := m.bscan.Parse(data, m)
	m.Release() // a parse error ends the stream mid-document
	m.flushPending()
	return err
}

// FilterDocument processes a single document and returns the sorted oids of
// matching filters.
func (m *Machine) FilterDocument(data []byte) ([]int32, error) {
	err := m.parse(data)
	if err != nil {
		return nil, err
	}
	if m.err != nil {
		return nil, m.err
	}
	out := make([]int32, len(m.results))
	copy(out, m.results)
	return out, nil
}

// Train runs the machine over training data (Sec. 5): states created here
// persist, warming the caches, but lookup statistics and document counters
// are reset afterwards so subsequent measurements reflect the warmed
// machine. The training documents lock like any others, so cursors may keep
// filtering meanwhile; what they count up to the reset is dropped with it.
func (m *Machine) Train(data []byte) error {
	m.training = true
	err := m.parse(data)
	m.training = false
	m.ctr.lookups.Store(0)
	m.ctr.hits.Store(0)
	m.ctr.docs.Store(0)
	m.ctr.events.Store(0)
	m.ctr.matches.Store(0)
	m.ctr.exclusive.Store(0)
	return err
}

func dedupSorted(ids []int32) []int32 {
	if len(ids) < 2 {
		return ids
	}
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}

// ApproxMemoryBytes estimates the memory held by the lazily built states
// and transition tables: state arrays plus the allocated slots of the flat
// tables and intern indexes (a slot's cost is its key + value footprint;
// open addressing has no per-entry boxes, so no overhead factor applies).
// It backs the paper's observation that total memory grows slightly above
// linearly with the workload (Figs. 6 + 7 combined).
func (m *Machine) ApproxMemoryBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var b int64
	b += 4 * m.ctr.bstateAFASum.Load() // bottom-up state arrays
	for _, t := range m.tsets {
		b += 4 * int64(len(t))
	}
	b += m.pushTab.memBytes()
	b += m.popTab.memBytes()
	b += m.addTab.memBytes()
	b += m.valueTab.memBytes()
	b += m.sectTab.memBytes()
	b += m.bintern.memBytes()
	b += m.tintern.memBytes()
	return b
}

// BStateSet exposes an interned bottom-up state's AFA set (for tests and
// debugging).
func (m *Machine) BStateSet(id int32) []int32 { return m.bsets[id] }

// Current returns the current (top-down, bottom-up) state ids.
func (m *Machine) Current() (qt, qb int32) { return m.qt, m.qb }

// StackDepth returns the current stack depth.
func (m *Machine) StackDepth() int { return len(m.stack) }
