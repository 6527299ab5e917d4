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
// another, which share the machine: each call runs on a cursor of its own
// over the one set of warm tables, in parallel while the tables answer and
// one at a time where a document has to fill them. Stats,
// WriteWorkloadSnapshot and ApproxMemoryBytes may run beside them; Train
// and PrecomputeEager are set-up calls, one at a time per engine lineage.
//
// An Engine's workload never changes. WithQueries, WithoutQuery and
// Consolidated (cow.go) derive the next engine instead: WithQueries splices
// the new filters into the lineage's one machine, the lazy machine's own
// update path (only the table rows the new filters can change are rebuilt),
// so the warm machine is not discarded; Consolidated compiles the live
// filters into a fresh machine.
//
// Every filter has an id, the oid of the paper's accept sets. Compile numbers
// its filters 0..n-1 and WithQueries continues from NumQueries; an id never
// changes and is never handed out again, across WithoutQuery and
// Consolidated too, so a caller may key its own tables by it.
type Engine struct {
	// One slot per compiled filter, in id order (columns, cow.go), masked
	// when removed[s].
	columns
	removed []bool
	masked  int // slots with removed set
	nextID  int // the id the next added filter gets: the lineage's high-water mark
	cfg     Config
	m       *core.Machine // the lineage's machine

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
	return &byteDriver{e: e, m: e.m.Fork()}
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
	e := &Engine{nextID: len(queries), cfg: cfg, ctr: new(streamCounters)}
	if err := e.build(queries, filters, idRange(0, len(queries))); err != nil {
		return nil, err
	}
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

// oidRange returns the oids lo, lo+1, ..., lo+n-1.
func oidRange(lo int32, n int) []int32 {
	oids := make([]int32, n)
	for i := range oids {
		oids[i] = lo + int32(i)
	}
	return oids
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

// build compiles filters into a new machine under the engine's
// configuration and makes them the engine's slots, unmasked, under ids.
func (e *Engine) build(queries []string, filters []*xpath.Filter, ids []int) error {
	m, err := e.buildMachine(filters)
	if err != nil {
		return err
	}
	e.m, e.removed = m, make([]bool, len(ids))
	e.columns = columns{}.appended(queries, filters, ids, oidRange(0, len(ids)))
	return nil
}

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

// NumLayers reports how many machines the engine runs per event: always one,
// however the workload grew.
func (e *Engine) NumLayers() int { return 1 }

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
// a cursor on the engine's machine. It hands the scanner's events to the
// cursor and emits the engine's matches at each document boundary; names
// flow from the input buffer to the machine's symbol interner without a
// string allocation per event.
type byteDriver struct {
	e          *Engine
	scan       sax.ByteScanner
	m          *core.Machine // this driver's cursor on e.m
	onDocument func(matches []int)
	scratch    []int // the current document's matches
	docs       int   // documents the current call has seen
	docStart   time.Time
	skipped    int64 // elements skipped since the last flush to e.ctr

	// Tracing state, non-nil only for sampled documents. A traced document
	// takes the same event methods as any other; only its boundaries read
	// the machine's counters (tracing.go).
	tc       *trace.Ctx
	tcParent trace.SpanID
	tcSpan   trace.SpanID
	ctrBase  machineCounters // the counters at the document's start
}

func (d *byteDriver) StartDocument() {
	d.docStart = time.Now()
	if d.tc != nil {
		d.traceStartDocument()
	}
	d.m.StartDocument()
}

// StartElementBytes skips the element or attribute the tag opens when the
// machine finds it invisible (core.Machine.Resolve): the machine then
// records only the element child (Machine.Skip), and the scanner delivers
// nothing more of it.
func (d *byteDriver) StartElementBytes(name []byte) {
	sym, invisible := d.m.Resolve(name)
	if invisible {
		d.m.Skip(sym)
		d.scan.SkipElement()
		d.skipped++
		return
	}
	d.m.Start(sym)
}

func (d *byteDriver) TextBytes(data []byte) { d.m.TextBytes(data) }

func (d *byteDriver) EndElementBytes(name []byte) { d.m.EndElementBytes(name) }

func (d *byteDriver) EndDocument() {
	d.m.EndDocument()
	d.e.ctr.lat.Observe(time.Since(d.docStart).Seconds())
	d.scratch = d.e.appendOwned(d.scratch[:0], d.m.Results())
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
// slice is reused between calls; copy it to retain it.
func (e *Engine) FilterBytes(data []byte, onDocument func(matches []int)) error {
	return e.FilterBytesTraced(data, nil, TraceRoot, onDocument)
}

// FilterBytesTraced is FilterBytes with span recording: each document in
// data gets a "filter" child span of parent on tc, carrying machine
// telemetry attributes (states created, table flushes, match count, event
// count). A nil tc records nothing — call sites thread the context
// unconditionally.
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
	d.m.Release() // a parse error ends the stream mid-document
	if err == nil {
		err = d.m.Err()
	}
	return d, err
}

// put returns a driver to the free list, unless a strict-mode error stuck to
// its cursor: that one is dropped.
func (e *Engine) put(d *byteDriver) {
	if d.m.Err() != nil {
		return
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
	return e.m.PrecomputeEager(maxStates)
}

// Train runs the machine over warm-up data: states created are kept, and
// runtime counters are reset afterwards (Sec. 5, "Training the XPush
// Machine"). Use it with recorded traffic, or rely on Config.Training for
// synthetic training data.
func (e *Engine) Train(data []byte) error { return e.m.Train(data) }

// TrainingData generates the synthetic training documents for this
// workload (requires a DTD in the configuration).
func (e *Engine) TrainingData() ([]byte, error) {
	if e.cfg.DTD == nil {
		return nil, fmt.Errorf("xpushstream: TrainingData requires a DTD")
	}
	return workload.TrainingData(e.filters, e.cfg.DTD.d), nil
}

// writeSnapshot persists the engine's lazily built (or trained) machine
// state, the tail of a workload snapshot: a machine count, then each
// machine's snapshot, length-prefixed (the machine reader buffers and would
// otherwise consume what follows). The state is bound to the exact workload
// and configuration; readSnapshot loads it into an engine rebuilt from the
// same. A machine that holds filters the engine does not (NumOrphaned) —
// spliced by another generation, even while this one is written — matches
// no rebuilt engine: its state is left out (count 0) and the reopened
// engine starts cold.
func (e *Engine) writeSnapshot(w io.Writer) error {
	sw := &snapWriter{w: w}
	var buf bytes.Buffer
	ok, err := e.m.WriteSnapshot(&buf, len(e.oids))
	if err != nil {
		return err
	}
	if !ok {
		sw.u64(0)
		return sw.err
	}
	sw.u64(1)
	sw.u64(uint64(buf.Len()))
	sw.write(buf.Bytes())
	return sw.err
}

// readSnapshot restores machine state persisted by writeSnapshot into an
// engine with the same queries and configuration. A snapshot of several
// machines, written when the engine ran one per tail layer, cannot be loaded
// into one: it is read past, and the engine stays cold.
func (e *Engine) readSnapshot(r io.Reader) error {
	n, err := readU64(r)
	if err != nil {
		return err
	}
	if n > maxSnapshotQueries {
		return fmt.Errorf("xpushstream: corrupt snapshot (%d machines)", n)
	}
	for i := uint64(0); i < n; i++ {
		size, err := readU64(r)
		if err != nil {
			return err
		}
		if size > 1<<33 {
			return fmt.Errorf("xpushstream: corrupt snapshot (machine of %d bytes)", size)
		}
		data, err := readN(r, size)
		if err != nil {
			return err
		}
		if n == 1 {
			if err := e.m.ReadSnapshot(bytes.NewReader(data)); err != nil {
				return err
			}
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

// Stats returns a snapshot of runtime counters. The machine's counters are
// the lineage's since its Compile or Consolidated: every generation that
// shares the machine reads the same ones, and Matches counts the machine's
// matches, masked filters and other generations' included.
func (e *Engine) Stats() Stats {
	s := e.m.Stats()
	out := Stats{
		States: s.BStates, TopDownStates: s.TStates,
		Lookups: s.Lookups, Hits: s.Hits,
		Documents: s.Docs, Events: s.Events, Matches: s.Matches,
		MixedContentEvents: s.MixedContentEvents, Flushes: s.Flushes,
		ExclusiveDocuments: s.ExclusiveDocs,
	}
	afaSum := s.BStateAFASum
	out.Bytes = e.ctr.bytes.Load()
	out.SkippedElements = e.ctr.skipped.Load()
	out.FilterLatency = e.ctr.lat.Snapshot()
	if out.States > 0 {
		out.AvgStateSize = float64(afaSum) / float64(out.States)
	}
	if out.Lookups > 0 {
		out.HitRatio = float64(out.Hits) / float64(out.Lookups)
	}
	return out
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
