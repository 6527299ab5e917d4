// Package xpushstream is the public API of this repository: a streaming
// XPath filtering engine for XML message brokers, implementing the XPush
// Machine of
//
//	A. K. Gupta and D. Suciu. Stream Processing of XPath Queries with
//	Predicates. SIGMOD 2003.
//
// An Engine compiles a workload of boolean XPath filters — typically tens or
// hundreds of thousands, each with value predicates — into a single lazily
// constructed deterministic pushdown automaton that processes every SAX
// event of an XML stream in O(1) time, independent of the workload size.
// Common subexpressions are eliminated in both the structure-navigation part
// and the predicate-evaluation part of the filters.
//
// Quickstart:
//
//	engine, err := xpushstream.Compile([]string{
//	        `//order[total > 1000]`,
//	        `//order[customer/country = "US" and total > 100]`,
//	}, xpushstream.Config{})
//	...
//	matches, err := engine.FilterDocument(xmlBytes) // -> filter ids
//
// The supported XPath fragment (Fig. 1 of the paper) is
//
//	P      ::= /E | //E
//	E      ::= label | text() | * | @label | @* | . | E/E | E//E | E[Q]
//	Q      ::= E | E op Const | Q and Q | Q or Q | not(Q)
//	op     ::= = | != | < | <= | > | >=
//
// plus the contains(E, "s") and starts-with(E, "s") string predicates.
package xpushstream

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/afa"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/sax"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// Config selects the engine's optimizations (Sec. 5 of the paper). The zero
// value is the basic bottom-up machine with eager value-state
// precomputation, a good default for workloads without a DTD.
type Config struct {
	// TopDownPruning starts bottom-up computations only at branches
	// enabled by downward navigation, avoiding states for predicates
	// that match under the wrong element context.
	TopDownPruning bool
	// OrderOptimization exploits sibling order from the DTD (requires
	// DTD): out-of-order partial matches are discarded, shrinking the
	// state space from subsets to prefixes (Theorem 6.2).
	OrderOptimization bool
	// EarlyNotification reports a filter as soon as its first branching
	// state matches and drops its states from further processing. It
	// implies TopDownPruning. Most effective for filters with a single
	// predicate.
	EarlyNotification bool
	// Training warms the machine before the first document: a synthetic
	// training document is generated per filter (requires DTD) and run
	// through the machine, precomputing the states real data will reuse.
	Training bool
	// DisablePrecompute turns off eager computation of the atomic
	// predicate index's value states (precomputation is on by default
	// for the non-top-down machine, per Sec. 4).
	DisablePrecompute bool
	// DTD provides content-model information for OrderOptimization and
	// Training.
	DTD *DTD
	// StrictMixedContent reports mixed element/text content as an error
	// instead of processing it with union semantics.
	StrictMixedContent bool
	// MaxStates caps the lazily built state tables; past the cap the
	// tables are flushed at the next document boundary (bounded-memory
	// operation on infinite streams) at which no other document is in
	// flight on the machine. Zero means unlimited.
	MaxStates int
}

// Stats is a snapshot of engine runtime counters. They correspond directly
// to the measurements in the paper's evaluation: States and AvgStateSize
// (Figs. 6, 7, 10, 11), HitRatio (Fig. 8).
type Stats struct {
	// States is the number of lazily materialised machine states.
	States int
	// TopDownStates counts top-down (navigation) states.
	TopDownStates int
	// AvgStateSize is the mean number of AFA states per machine state.
	AvgStateSize float64
	// Lookups and Hits count transition-table lookups; HitRatio is
	// Hits/Lookups.
	Lookups, Hits int64
	HitRatio      float64
	// Documents and Events count the processed stream.
	Documents, Events int64
	// Matches counts reported (document, filter) pairs.
	Matches int64
	// MixedContentEvents counts violations of the no-mixed-content data
	// model.
	MixedContentEvents int64
	// Flushes counts MaxStates cache flushes.
	Flushes int64
	// ExclusiveDocuments counts the documents that took a machine's write
	// lock — a table miss, or a contains/starts-with predicate — and ran
	// one at a time from there on; the rest ran on shared tables, in
	// parallel. On a warm static workload it stops growing.
	ExclusiveDocuments int64
	// Bytes counts stream bytes processed.
	Bytes int64
	// SkippedElements counts the elements and attributes whose label no
	// filter of any layer names and no wildcard can match: the scanner
	// checked each one's subtree but delivered none of its events to the
	// machines (DESIGN.md "Skipping what no filter can see").
	SkippedElements int64
	// FilterLatency is a snapshot of the per-document filter-latency
	// histogram, in seconds. Use FilterLatency.Summary() for
	// p50/p90/p99/p99.9/max, or feed it to an obs.Registry for Prometheus
	// exposition.
	FilterLatency obs.Snapshot
	// Windowed counters over the most recent WindowDocuments documents
	// (at most core.StatsWindow per layer): the time-local view of
	// Fig. 8's warm-up curve. On a long-running broker WindowHitRatio
	// climbs toward 1 as the lazy machine completes, while the cumulative
	// HitRatio above stays depressed by cold-start misses.
	WindowDocuments           int
	WindowLookups, WindowHits int64
	WindowStatesAdded         int64
	WindowHitRatio            float64
}

// LatencySummary returns the per-document filter-latency quantile summary
// (seconds).
func (s Stats) LatencySummary() obs.Summary { return s.FilterLatency.Summary() }

// DTD is a parsed document type definition (the <!ELEMENT>/<!ATTLIST>
// subset), used for the order optimization and training-data generation.
type DTD struct {
	d *dtd.DTD
}

// ParseDTD parses DTD text.
func ParseDTD(text string) (*DTD, error) {
	d, err := dtd.Parse(text)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// IsRecursive reports whether some element can transitively contain itself.
func (d *DTD) IsRecursive() bool { return d.d.IsRecursive() }

// MaxDepth estimates the maximum document depth (capped for recursive
// DTDs).
func (d *DTD) MaxDepth(cap int) int { return d.d.MaxDepth(cap) }

// Engine is a compiled filter workload. The filtering calls (FilterBytes,
// FilterDocument, AppendMatches, FilterStreaming and their variants) are safe
// for concurrent use, on one engine and across engines derived from one
// another, which share machine layers: each call runs on a cursor of its own
// over the one set of warm tables, in parallel while the tables answer and
// one at a time where a document has to fill them. Stats, WriteSnapshot and
// ApproxMemoryBytes may run beside them; Train, PrecomputeEager and
// ReadSnapshot are set-up calls, one at a time per engine lineage.
//
// An Engine's workload never changes. WithQueries, WithoutQuery and
// Consolidated (cow.go) derive the next engine instead: following the
// layering approach sketched in the paper's conclusion, new filters form a
// small additional machine run in lockstep with the base machine, so the
// warmed-up base is not discarded. WithQueries merges those small machines
// among themselves size-tiered, so there are O(log n) of them, and
// Consolidated merges all layers back into one machine.
//
// Every filter has an id, the oid of the paper's accept sets. Compile numbers
// its filters 0..n-1 and WithQueries continues from NumQueries; an id never
// changes and is never handed out again, across WithoutQuery and
// Consolidated too, so a caller may key its own tables by it.
type Engine struct {
	// One slot per compiled filter, in id order: slot s holds filter ids[s],
	// masked when removed[s]. ids ascend, so an id's slot is a binary search
	// away.
	queries []string
	filters []*xpath.Filter
	ids     []int
	removed []bool
	masked  int // slots with removed set
	nextID  int // the id the next added filter gets: the lineage's high-water mark
	cfg     Config
	// layers[i] filters report oids offset by layerOff[i]: oid o of layer i
	// is slot layerOff[i]+o. Layer 0 is the base machine.
	layers   []*core.Machine
	layerOff []int

	// Runtime observability, shared by pointer with every engine derived
	// from this one (cow.go): the counters follow the workload across
	// generations, so a swap to a derived engine never drops a count.
	ctr *streamCounters

	// free holds the idle drivers: a filtering call takes one, or makes
	// one, and puts it back with its buffers warm, so there are as many as
	// calls have ever overlapped on this engine.
	freeMu sync.Mutex
	free   []*byteDriver
}

// driver takes an idle driver off the free list, or makes one.
func (e *Engine) driver() *byteDriver {
	e.freeMu.Lock()
	defer e.freeMu.Unlock()
	if n := len(e.free); n > 0 {
		d := e.free[n-1]
		e.free = e.free[:n-1]
		return d
	}
	return &byteDriver{e: e, layers: core.ForkStack(e.layers)}
}

// streamCounters are an engine lineage's stream bytes and per-document
// filter latency. Atomic/lock-free so Stats can be scraped while a stream
// is being filtered.
type streamCounters struct {
	bytes   atomic.Int64
	skipped atomic.Int64
	lat     obs.Histogram
}

// Compile parses and compiles a workload of XPath filters. queries[i] gets
// id i, so the returned engine reports matches as indexes into queries.
func Compile(queries []string, cfg Config) (*Engine, error) {
	filters, err := parseQueries(queries, 0)
	if err != nil {
		return nil, err
	}
	e := &Engine{queries: append([]string(nil), queries...), filters: filters, ids: idRange(0, len(queries)),
		removed: make([]bool, len(filters)), nextID: len(queries), cfg: cfg, ctr: new(streamCounters)}
	m, err := e.buildMachine(filters)
	if err != nil {
		return nil, err
	}
	e.layers = []*core.Machine{m}
	e.layerOff = []int{0}
	return e, nil
}

// idRange returns the ids lo, lo+1, ..., lo+n-1.
func idRange(lo, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = lo + i
	}
	return ids
}

func parseQueries(queries []string, base int) ([]*xpath.Filter, error) {
	filters := make([]*xpath.Filter, len(queries))
	for i, q := range queries {
		f, err := xpath.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", base+i, err)
		}
		filters[i] = f
	}
	return filters, nil
}

// buildMachine compiles a filter slice into one machine under the engine's
// configuration.
func (e *Engine) buildMachine(filters []*xpath.Filter) (*core.Machine, error) {
	a, err := afa.Compile(filters)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		TopDown:            e.cfg.TopDownPruning,
		Early:              e.cfg.EarlyNotification,
		PrecomputeValues:   !e.cfg.DisablePrecompute,
		StrictMixedContent: e.cfg.StrictMixedContent,
		MaxStates:          e.cfg.MaxStates,
	}
	if e.cfg.OrderOptimization {
		if e.cfg.DTD == nil {
			return nil, fmt.Errorf("xpushstream: OrderOptimization requires a DTD")
		}
		opts.Order = e.cfg.DTD.d.SiblingOrder()
	}
	m := core.New(a, opts)
	if e.cfg.Training {
		if e.cfg.DTD == nil {
			return nil, fmt.Errorf("xpushstream: Training requires a DTD")
		}
		data := workload.TrainingData(filters, e.cfg.DTD.d)
		if err := m.Train(data); err != nil {
			return nil, fmt.Errorf("xpushstream: training failed: %w", err)
		}
	}
	return m, nil
}

// NumLayers reports how many machines the engine currently runs per event.
func (e *Engine) NumLayers() int { return len(e.layers) }

// NumQueries returns the id high-water mark: how many ids the engine and its
// ancestors have handed out, which is the workload size until WithoutQuery
// and Consolidated drop a filter. The next filter WithQueries adds gets this
// id.
func (e *Engine) NumQueries() int { return e.nextID }

// Query returns the source text of filter id, masked or not, or "" when the
// engine holds no such filter (never added, or dropped by Consolidated).
func (e *Engine) Query(id int) string {
	if s, ok := slices.BinarySearch(e.ids, id); ok {
		return e.queries[s]
	}
	return ""
}

// FilterDocument processes one XML document and returns the sorted ids of
// the filters that match it (nil when none does).
func (e *Engine) FilterDocument(doc []byte) ([]int, error) {
	return AppendMatches[int](e, nil, doc, nil, TraceRoot)
}

// AppendMatches filters one XML document and appends the sorted ids of the
// filters that match it to dst, converted to T: a caller that keeps its own
// buffer, or keys its tables by uint64, gets the accept set with no copy in
// between and no allocation once dst has the room. Spans are recorded as by
// FilterBytesTraced. doc must hold exactly one document.
func AppendMatches[T int | uint64](e *Engine, dst []T, doc []byte, tc *TraceCtx, parent TraceSpanID) ([]T, error) {
	d, err := e.run(doc, tc, parent, nil)
	if err == nil && d.docs != 1 {
		err = fmt.Errorf("xpushstream: expected exactly one document, got %d", d.docs)
	}
	if err == nil {
		dst = slices.Grow(dst, len(d.scratch))
		for _, id := range d.scratch {
			dst = append(dst, T(id))
		}
	}
	e.put(d)
	return dst, err
}

// FilterStreaming processes a possibly unbounded stream of concatenated XML
// documents with memory bounded by the largest single document (plus the
// machine's state tables, which MaxStates can cap): documents are split off
// the reader incrementally instead of buffering the whole stream. This is
// the deployment mode for long-running brokers.
func (e *Engine) FilterStreaming(r io.Reader, onDocument func(matches []int)) error {
	return e.FilterStreamingLimit(r, 0, onDocument)
}

// FilterStreamingLimit is FilterStreaming with an explicit per-document
// size bound (sax.StreamDocumentsLimit's): a document larger than
// maxDocBytes fails the stream with a clean parse error instead of
// buffering without bound. 0 selects the 64 MiB default.
func (e *Engine) FilterStreamingLimit(r io.Reader, maxDocBytes int, onDocument func(matches []int)) error {
	return sax.StreamDocumentsLimit(r, maxDocBytes, func(doc []byte) error {
		return e.FilterBytes(doc, onDocument)
	})
}

// byteDriver is what one filtering call needs to itself: a byte scanner and
// a cursor on every machine layer. It fans the scanner's events to the
// cursors and emits the combined match set at each document boundary; names
// flow from the input buffer to the machines' symbol interner without a
// string allocation per event.
type byteDriver struct {
	e          *Engine
	scan       sax.ByteScanner
	layers     []*core.Machine // cursors, one per e.layers
	onDocument func(matches []int)
	scratch    []int // the current document's matches
	docs       int   // documents the current call has seen
	docStart   time.Time
	skipped    int64 // elements skipped since the last flush to e.ctr

	// Tracing state, non-nil only for sampled documents.
	// The common untraced case pays exactly one nil check per event method;
	// the traced path times each layer's event handling into layerNS and
	// synthesizes per-layer child spans at the document boundary (see
	// tracing.go).
	tc       *trace.Ctx
	tcParent trace.SpanID
	tcSpan   trace.SpanID
	layerNS  []int64
	ctrBase  [4]int64 // bstates, flushes, matches, events at doc start
}

func (d *byteDriver) StartDocument() {
	d.docStart = time.Now()
	if d.tc != nil {
		d.traceStartDocument()
	}
	for _, m := range d.layers {
		m.StartDocument()
	}
}

// StartElementBytes skips the element or attribute the tag opens when every
// layer finds it invisible (core.Machine.Resolve): each layer then records
// only the element child (Machine.Skip), and the scanner delivers nothing
// more of it. A name layer 0 sees is started at once, which in a workload
// naming every label is every name.
func (d *byteDriver) StartElementBytes(name []byte) {
	if d.tc != nil {
		d.startTraced(name)
		return
	}
	sym, invisible := d.layers[0].Resolve(name)
	if invisible && d.skip(name, sym) {
		return
	}
	d.layers[0].Start(sym)
	for _, m := range d.layers[1:] {
		m.StartElementBytes(name)
	}
}

// skip skips a start tag that layer 0 found invisible if every other layer
// agrees, and reports whether it did. An invisible name resolves to the same
// sentinel symbol on every layer, so layer 0's symbol serves them all.
func (d *byteDriver) skip(name []byte, sym int32) bool {
	for _, m := range d.layers[1:] {
		if _, invisible := m.Resolve(name); !invisible {
			return false
		}
	}
	for _, m := range d.layers {
		m.Skip(sym)
	}
	d.scan.SkipElement()
	d.skipped++
	return true
}

// startTraced is StartElementBytes timing each layer's share.
func (d *byteDriver) startTraced(name []byte) {
	var sym int32
	skip := true
	for li, m := range d.layers {
		t0 := time.Now()
		sym, skip = m.Resolve(name)
		d.layerNS[li] += time.Since(t0).Nanoseconds()
		if !skip {
			break
		}
	}
	for li, m := range d.layers {
		t0 := time.Now()
		if skip {
			m.Skip(sym)
		} else {
			m.StartElementBytes(name)
		}
		d.layerNS[li] += time.Since(t0).Nanoseconds()
	}
	if skip {
		d.scan.SkipElement()
		d.skipped++
	}
}

func (d *byteDriver) TextBytes(data []byte) {
	if d.tc == nil {
		for _, m := range d.layers {
			m.TextBytes(data)
		}
		return
	}
	for li, m := range d.layers {
		t0 := time.Now()
		m.TextBytes(data)
		d.layerNS[li] += time.Since(t0).Nanoseconds()
	}
}

func (d *byteDriver) EndElementBytes(name []byte) {
	if d.tc == nil {
		for _, m := range d.layers {
			m.EndElementBytes(name)
		}
		return
	}
	for li, m := range d.layers {
		t0 := time.Now()
		m.EndElementBytes(name)
		d.layerNS[li] += time.Since(t0).Nanoseconds()
	}
}

func (d *byteDriver) EndDocument() {
	for _, m := range d.layers {
		m.EndDocument()
	}
	d.e.ctr.lat.Observe(time.Since(d.docStart).Seconds())
	// Each machine reports sorted oids, layerOff never decreases from one
	// layer to the next and ids ascend over slots, so the concatenation is
	// already sorted.
	d.scratch = d.scratch[:0]
	e := d.e
	for li, m := range d.layers {
		res := m.Results()
		if len(res) == 0 {
			continue
		}
		// A layer whose first and last ids are as far apart as its slots
		// holds consecutive ids (they ascend): a match's id is its slot plus
		// a constant, with no load from the id column per match. Only a
		// consolidated base with holes takes the column.
		lo, hi := e.layerSlots(li)
		delta := e.ids[lo] - lo
		dense := e.ids[hi-1] == hi-1+delta
		for _, o := range res {
			switch s := lo + int(o); {
			case e.removed[s]:
			case dense:
				d.scratch = append(d.scratch, s+delta)
			default:
				d.scratch = append(d.scratch, e.ids[s])
			}
		}
	}
	if d.tc != nil {
		d.traceEndDocument(len(d.scratch))
	}
	d.docs++
	if d.onDocument != nil {
		d.onDocument(d.scratch)
	}
}

// FilterBytes processes a byte slice of concatenated XML documents, invoking
// onDocument with the matching filter ids after each document. The matches
// slice is reused between calls; copy it to retain it. All layers run in
// lockstep off a single parse of the stream.
func (e *Engine) FilterBytes(data []byte, onDocument func(matches []int)) error {
	return e.FilterBytesTraced(data, nil, TraceRoot, onDocument)
}

// FilterBytesTraced is FilterBytes with span recording: each document in
// data gets a "filter" child span of parent on tc, carrying machine
// telemetry attributes (states created, table flushes, match count, event
// count) and per-layer child spans. A nil tc records nothing — call sites
// thread the context unconditionally.
func (e *Engine) FilterBytesTraced(data []byte, tc *TraceCtx, parent TraceSpanID, onDocument func(matches []int)) error {
	d, err := e.run(data, tc, parent, onDocument)
	e.put(d)
	return err
}

// run parses data on an idle driver and returns the driver, holding the last
// document's matches and the count of documents seen, for the caller to read
// before it hands the driver back with put.
func (e *Engine) run(data []byte, tc *TraceCtx, parent TraceSpanID, onDocument func(matches []int)) (*byteDriver, error) {
	e.ctr.bytes.Add(int64(len(data)))
	d := e.driver()
	d.onDocument, d.tc, d.tcParent, d.docs = onDocument, tc, parent, 0
	err := d.scan.Parse(data, d)
	d.onDocument, d.tc = nil, nil
	if d.skipped != 0 {
		e.ctr.skipped.Add(d.skipped)
		d.skipped = 0
	}
	for _, m := range d.layers {
		m.Release() // a parse error ends the stream mid-document
		if err == nil {
			err = m.Err()
		}
	}
	return d, err
}

// put returns a driver to the free list, unless a strict-mode error stuck to
// one of its cursors: that one is dropped.
func (e *Engine) put(d *byteDriver) {
	for _, m := range d.layers {
		if m.Err() != nil {
			return
		}
	}
	e.freeMu.Lock()
	e.free = append(e.free, d)
	e.freeMu.Unlock()
}

// PrecomputeEager materialises every accessible machine state ahead of any
// input (the eager construction of Sec. 3.2 of the paper). Afterwards,
// streams over the workload's alphabet run entirely on cache hits. The
// worst case is exponential in the workload's predicate count — the reason
// the machine is lazy by default — so maxStates bounds the exploration
// (<= 0 selects a ~1M-state default); exceeding it returns an error and
// leaves the engine valid, partially warmed. Requires the basic machine
// (no TopDownPruning/EarlyNotification).
func (e *Engine) PrecomputeEager(maxStates int) (states int, err error) {
	total := 0
	for _, m := range e.layers {
		n, err := m.PrecomputeEager(maxStates)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Train runs all layers over warm-up data: states created are kept, and
// runtime counters are reset afterwards (Sec. 5, "Training the XPush
// Machine"). Use it with recorded traffic, or rely on Config.Training for
// synthetic training data.
func (e *Engine) Train(data []byte) error {
	for _, m := range e.layers {
		if err := m.Train(data); err != nil {
			return err
		}
	}
	return nil
}

// TrainingData generates the synthetic training documents for this
// workload (requires a DTD in the configuration).
func (e *Engine) TrainingData() ([]byte, error) {
	if e.cfg.DTD == nil {
		return nil, fmt.Errorf("xpushstream: TrainingData requires a DTD")
	}
	return workload.TrainingData(e.filters, e.cfg.DTD.d), nil
}

// WriteSnapshot persists the engine's lazily built (or trained) machine
// state, so a restarted broker can resume warm instead of re-learning its
// states from traffic. The snapshot is bound to the exact workload and
// configuration; load it with ReadSnapshot on an engine compiled from the
// same queries and Config.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	sw := &snapWriter{w: w}
	sw.u64(uint64(len(e.layers)))
	// Each machine snapshot is length-prefixed: the machine reader buffers
	// internally and would otherwise consume bytes belonging to the next
	// layer.
	var buf bytes.Buffer
	for _, m := range e.layers {
		buf.Reset()
		if err := m.WriteSnapshot(&buf); err != nil {
			return err
		}
		sw.u64(uint64(buf.Len()))
		sw.write(buf.Bytes())
	}
	return sw.err
}

// ReadSnapshot restores machine state persisted by WriteSnapshot into an
// engine with the same queries, layer structure, and configuration.
func (e *Engine) ReadSnapshot(r io.Reader) error {
	if n, err := readU64(r); err != nil {
		return err
	} else if n != uint64(len(e.layers)) {
		return fmt.Errorf("xpushstream: snapshot has %d layers, engine has %d (snapshot a Consolidated engine, or use WriteWorkloadSnapshot/OpenWorkloadSnapshot, which record and rebuild the layer partition)", n, len(e.layers))
	}
	for _, m := range e.layers {
		n, err := readU64(r)
		if err != nil {
			return err
		}
		if n > 1<<33 {
			return fmt.Errorf("xpushstream: corrupt snapshot (layer of %d bytes)", n)
		}
		data, err := readN(r, n)
		if err != nil {
			return err
		}
		if err := m.ReadSnapshot(bytes.NewReader(data)); err != nil {
			return err
		}
	}
	return nil
}

// readN reads exactly n bytes into a buffer that grows as they arrive, so a
// corrupt length prefix costs what the input holds, not what it claims.
func readN(r io.Reader, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

// Stats returns a snapshot of runtime counters, aggregated over layers
// (documents, events and mixed-content events count the stream once, as
// every layer sees the same events; state and lookup counters sum across
// layers).
func (e *Engine) Stats() Stats {
	var out Stats
	var sizeSum float64
	for li, m := range e.layers {
		s := m.Stats()
		out.States += s.BStates
		out.TopDownStates += s.TStates
		sizeSum += s.AvgStateSize() * float64(s.BStates)
		out.Lookups += s.Lookups
		out.Hits += s.Hits
		out.Matches += s.Matches
		out.Flushes += s.Flushes
		out.ExclusiveDocuments += s.ExclusiveDocs
		out.WindowLookups += s.WindowLookups
		out.WindowHits += s.WindowHits
		out.WindowStatesAdded += s.WindowStatesAdded
		if li == 0 {
			out.Documents = s.Docs
			out.Events = s.Events
			out.MixedContentEvents = s.MixedContentEvents
			out.WindowDocuments = s.WindowDocs
		}
	}
	out.Bytes = e.ctr.bytes.Load()
	out.SkippedElements = e.ctr.skipped.Load()
	out.FilterLatency = e.ctr.lat.Snapshot()
	finishStats(&out, sizeSum)
	return out
}

// finishStats computes the derived ratio fields from the summed counters.
func finishStats(s *Stats, stateSizeSum float64) {
	if s.States > 0 {
		s.AvgStateSize = stateSizeSum / float64(s.States)
	}
	if s.Lookups > 0 {
		s.HitRatio = float64(s.Hits) / float64(s.Lookups)
	}
	if s.WindowLookups > 0 {
		s.WindowHitRatio = float64(s.WindowHits) / float64(s.WindowLookups)
	}
}

// WorkloadReport summarises the pairwise state relationships of Theorem 6.1
// (Sec. 6): subsumptions and inconsistencies between the workload's
// automaton states bound the machine's accessible state count; large
// independent degrees signal workloads that may create many states.
type WorkloadReport struct {
	States               int
	SubsumptionPairs     int
	EquivalentPairs      int
	InconsistentPairs    int
	IndependentPairs     int
	MaxIndependentDegree int
	TotalAtomicPreds     int
}

// AnalyzeWorkload runs the Theorem 6.1 pairwise analysis. It is quadratic
// in the number of automaton states — a diagnostics tool for workload
// authoring, not a hot path.
func (e *Engine) AnalyzeWorkload() (WorkloadReport, error) {
	a, err := afa.Compile(e.filters)
	if err != nil {
		return WorkloadReport{}, err
	}
	r := a.Analyze()
	total := 0
	for _, f := range e.filters {
		total += f.CountAtomicPredicates()
	}
	return WorkloadReport{
		States:               r.States,
		SubsumptionPairs:     r.SubsumptionPairs,
		EquivalentPairs:      r.EquivalentPairs,
		InconsistentPairs:    r.InconsistentPairs,
		IndependentPairs:     r.IndependentPairs,
		MaxIndependentDegree: r.MaxIndependentDegree,
		TotalAtomicPreds:     total,
	}, nil
}

// ValidateQuery parses a single filter, returning a descriptive error when
// it lies outside the supported fragment.
func ValidateQuery(query string) error {
	f, err := xpath.Parse(query)
	if err != nil {
		return err
	}
	_, err = afa.Compile([]*xpath.Filter{f})
	return err
}
