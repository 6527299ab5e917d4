package server

import (
	"fmt"
	"sort"
	"sync"

	xpushstream "repro"
	"repro/internal/obs"
)

// The per-query cost profiler attributes traced documents' filter cost to
// the canonical queries that matched them, keyed by the dedup registry's
// stable keys. It exists so "which query is expensive?" has an answer from
// a running broker: the paper's cost currency (states created, matches)
// plus wall time and fan-out, ranked per canonical filter.
//
// Attribution rule: a document's filter span covers the whole machine run,
// which is shared across every compiled query — so its duration and states
// are charged in full to each key the document matched. The numbers are
// therefore a matched-document cost share, not an exclusive decomposition;
// they rank queries by how much expensive traffic they attract, which is
// what subsumption-collapse and replay-sharing decisions need.
//
// The profiler is fed exclusively from traced documents (tc != nil) and is
// nil when tracing is disabled — the same nil-receiver discipline as
// trace.Recorder, so the untraced hot path stays zero-allocation
// (TestUntracedProfilerZeroAllocs pins it).
const (
	// profilerMaxQueries caps the accounting table's cardinality; keys past
	// the cap accumulate in the "other" bucket instead of growing the map.
	profilerMaxQueries = 1024
	// profilerTopK bounds how many per-query labeled series the metrics
	// endpoint exports (the JSON ranking reports the full table).
	profilerTopK = 10
	// profilerQueryLabelLen truncates canonical query text in metric labels.
	profilerQueryLabelLen = 64
)

// queryCost accumulates one canonical key's traced totals. canon is
// captured at first observation, from the generation the document was
// filtered on, so the ranking stays resolvable after the last subscriber
// unsubscribes and the filter leaves the workload.
type queryCost struct {
	canon      string
	filterNS   int64 // cumulative filter span time of matched traced docs
	states     int64 // machine states created while filtering those docs
	matches    int64 // traced documents that matched this key
	fanout     int64 // subscriber deliveries fanned out for this key
	replayDocs int64 // durable replay-pump docs that matched this key
}

type queryProfiler struct {
	mu       sync.Mutex
	entries  map[uint64]*queryCost
	max      int
	other    queryCost // overflow bucket for keys past the cardinality cap
	overflow int64     // observations routed to the other bucket
}

func newQueryProfiler(maxQueries int) *queryProfiler {
	if maxQueries <= 0 {
		maxQueries = profilerMaxQueries
	}
	return &queryProfiler{entries: make(map[uint64]*queryCost), max: maxQueries}
}

// queryText resolves a registry key to its canonical text on e, the
// generation a document was filtered on ("" once e no longer holds it).
func queryText(e *xpushstream.Engine) func(key uint64) string {
	return func(key uint64) string { return e.Query(int(key)) }
}

// get returns the key's cost cell, or the other bucket once the table is at
// its cardinality cap. A new cell takes its text from canon (nil: none).
// Callers hold p.mu.
func (p *queryProfiler) get(key uint64, canon func(uint64) string) *queryCost {
	if e, ok := p.entries[key]; ok {
		return e
	}
	if len(p.entries) >= p.max {
		p.overflow++
		return &p.other
	}
	e := &queryCost{}
	if canon != nil {
		e.canon = canon(key)
	}
	p.entries[key] = e
	return e
}

// observeFilter charges one traced document's filter cost to every matched
// key (see the attribution rule above). canon resolves a key's canonical
// text; it is asked once per key, at first sight.
func (p *queryProfiler) observeFilter(keys []uint64, canon func(uint64) string, filterNS, states int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for _, key := range keys {
		e := p.get(key, canon)
		e.matches++
		e.filterNS += filterNS
		e.states += states
	}
	p.mu.Unlock()
}

// observeFanout counts subscriber deliveries fanned out for a matched key.
// The entry always exists already: fanout observation follows an
// observeFilter of the same key set within the same document.
func (p *queryProfiler) observeFanout(key uint64, n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.get(key, nil).fanout += n
	p.mu.Unlock()
}

// observeReplay counts one durable replay-pump document against every key
// it matched — the per-query view of ROADMAP's replay-lag bottleneck.
// canon resolves text as in observeFilter.
func (p *queryProfiler) observeReplay(keys []uint64, canon func(uint64) string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for _, key := range keys {
		p.get(key, canon).replayDocs++
	}
	p.mu.Unlock()
}

// QueryCost is one ranked /debug/queries entry.
type QueryCost struct {
	Key           uint64  `json:"key"`
	Query         string  `json:"query,omitempty"`
	FilterSeconds float64 `json:"filter_seconds"`
	StatesCreated int64   `json:"states_created"`
	Matches       int64   `json:"matches"`
	Fanout        int64   `json:"fanout"`
	ReplayDocs    int64   `json:"replay_docs"`
}

func costToJSON(key uint64, c *queryCost) QueryCost {
	return QueryCost{
		Key:           key,
		Query:         c.canon,
		FilterSeconds: float64(c.filterNS) / 1e9,
		StatesCreated: c.states,
		Matches:       c.matches,
		Fanout:        c.fanout,
		ReplayDocs:    c.replayDocs,
	}
}

// snapshot returns the tracked entries ranked by cumulative filter time
// (ties: matches, then key), the other bucket, and the overflow count.
func (p *queryProfiler) snapshot() (entries []QueryCost, other QueryCost, overflow int64) {
	if p == nil {
		return nil, QueryCost{}, 0
	}
	p.mu.Lock()
	entries = make([]QueryCost, 0, len(p.entries))
	for key, c := range p.entries {
		entries = append(entries, costToJSON(key, c))
	}
	other = costToJSON(0, &p.other)
	other.Query = "other"
	overflow = p.overflow
	p.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.FilterSeconds != b.FilterSeconds {
			return a.FilterSeconds > b.FilterSeconds
		}
		if a.Matches != b.Matches {
			return a.Matches > b.Matches
		}
		return a.Key < b.Key
	})
	return entries, other, overflow
}

// profilerTop returns the top-K ranked entries plus the other bucket, the
// labeled-metrics view of the table.
func (s *Server) profilerTop() ([]QueryCost, QueryCost) {
	entries, other, _ := s.prof.snapshot()
	if len(entries) > profilerTopK {
		// Everything past the top K folds into the exported other bucket so
		// the label cardinality stays bounded no matter the workload.
		for _, e := range entries[profilerTopK:] {
			other.FilterSeconds += e.FilterSeconds
			other.StatesCreated += e.StatesCreated
			other.Matches += e.Matches
			other.Fanout += e.Fanout
			other.ReplayDocs += e.ReplayDocs
		}
		entries = entries[:profilerTopK]
	}
	return entries, other
}

func profilerLabel(e *QueryCost) string {
	q := e.Query
	if len(q) > profilerQueryLabelLen {
		q = q[:profilerQueryLabelLen]
	}
	return fmt.Sprintf("key=\"%d\",query=%q", e.Key, q)
}

// registerProfilerMetrics exports the top-K per-query cost series. Only
// called when the profiler exists (tracing enabled), mirroring the tracer
// counters.
func (s *Server) registerProfilerMetrics() {
	labeled := func(pick func(*QueryCost) float64) func() []obs.Labeled {
		return func() []obs.Labeled {
			entries, other := s.profilerTop()
			out := make([]obs.Labeled, 0, len(entries)+1)
			for i := range entries {
				out = append(out, obs.Labeled{Labels: profilerLabel(&entries[i]), Value: pick(&entries[i])})
			}
			out = append(out, obs.Labeled{Labels: `key="other"`, Value: pick(&other)})
			return out
		}
	}
	s.reg.GaugeVecFunc("xpush_query_filter_seconds_total",
		"cumulative traced filter time attributed to each matched canonical query (top-K by cost + other)",
		labeled(func(e *QueryCost) float64 { return e.FilterSeconds }))
	s.reg.GaugeVecFunc("xpush_query_matches_total",
		"traced documents matched per canonical query (top-K by filter cost + other)",
		labeled(func(e *QueryCost) float64 { return float64(e.Matches) }))
	s.reg.GaugeVecFunc("xpush_query_fanout_total",
		"subscriber deliveries fanned out per canonical query on traced documents (top-K by filter cost + other)",
		labeled(func(e *QueryCost) float64 { return float64(e.Fanout) }))
	s.reg.GaugeVecFunc("xpush_query_states_created_total",
		"machine states created filtering traced documents, attributed per matched canonical query (top-K by filter cost + other)",
		labeled(func(e *QueryCost) float64 { return float64(e.StatesCreated) }))
	s.reg.GaugeVecFunc("xpush_query_replay_docs_total",
		"durable replay-pump documents matched per canonical query on traced replays (top-K by filter cost + other)",
		labeled(func(e *QueryCost) float64 { return float64(e.ReplayDocs) }))
}
