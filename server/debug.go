package server

import (
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Tracer returns the server's trace recorder (nil when tracing is disabled)
// so embedders can serve or export traces themselves.
func (s *Server) Tracer() *trace.Recorder { return s.tracer }

// DebugAddr returns the introspection listen address ("" when disabled).
func (s *Server) DebugAddr() string {
	if s.dln == nil {
		return ""
	}
	return s.dln.Addr().String()
}

// WriteChromeTrace dumps every retained trace in Chrome trace_event format
// (load the file at ui.perfetto.dev or chrome://tracing). cmd/xpushserve
// calls this on shutdown for -trace-out.
func (s *Server) WriteChromeTrace(w io.Writer) error {
	return s.tracer.WriteChrome(w)
}

// debugMux assembles the introspection endpoints: /metrics and /healthz
// (same handlers as the metrics listener), /debug/pprof/*, /debug/traces,
// and /debug/machine.
func (s *Server) debugMux() *http.ServeMux {
	mux := s.reg.NewMuxWithStatus(s.healthStatus)
	obs.RegisterPprof(mux)
	mux.Handle("/debug/traces", s.tracer.Handler())
	mux.HandleFunc("/debug/machine", s.handleMachine)
	mux.HandleFunc("/debug/queries", s.handleQueries)
	return mux
}

// queriesSnapshot is the /debug/queries payload: the per-query cost table
// ranked by cumulative traced filter time. Enabled only when tracing is on
// (the profiler rides the trace sample).
type queriesSnapshot struct {
	Enabled  bool        `json:"enabled"`
	Tracked  int         `json:"tracked"`
	Cap      int         `json:"cap"`
	Overflow int64       `json:"overflow"`
	Queries  []QueryCost `json:"queries"`
	Other    QueryCost   `json:"other"`
}

func (s *Server) handleQueries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if s.prof == nil {
		enc.Encode(queriesSnapshot{Queries: []QueryCost{}})
		return
	}
	entries, other, overflow := s.prof.snapshot()
	enc.Encode(queriesSnapshot{
		Enabled:  true,
		Tracked:  len(entries),
		Cap:      s.prof.max,
		Overflow: overflow,
		Queries:  entries,
		Other:    other,
	})
}

// machineSnapshot is the /debug/machine payload: one consistent look at the
// live filter machine, the workload, and the delivery plane.
type machineSnapshot struct {
	// Queries counts compiled filters (including removed-but-unconsolidated
	// ones); UniqueQueries the live compiled machine queries in the dedup
	// registry; Subscriptions the subscriber fan-out riding on them. With
	// deduplication, Subscriptions >> UniqueQueries on zipfian workloads.
	Queries       int    `json:"queries"`
	UniqueQueries int    `json:"unique_queries"`
	Subscriptions int    `json:"subscriptions"`
	DedupHits     uint64 `json:"dedup_hits"`
	SubsumedPairs int    `json:"subsumed_pairs"` // -1 = workload too large to analyze
	Layers        int    `json:"layers"`
	RemovedSlots  int    `json:"removed_slots"`
	// OrphanFilters are compiled into the machine with no slot in the
	// current generation (Engine.NumOrphaned); compaction reclaims them
	// with the removed slots.
	OrphanFilters  int   `json:"orphan_filters"`
	Consolidations int64 `json:"consolidations"`
	Compacting     bool  `json:"compaction_in_progress"`
	MemoryBytes    int64 `json:"memory_bytes"`
	Connections    int   `json:"connections"`
	ConnsRejected  int64 `json:"conns_rejected"`
	QueueDepth     int   `json:"queue_depth"`

	States        int     `json:"states"`
	TopDownStates int     `json:"top_down_states"`
	AvgStateSize  float64 `json:"avg_state_size"`
	Lookups       int64   `json:"lookups"`
	Hits          int64   `json:"hits"`
	HitRatio      float64 `json:"hit_ratio"`
	Flushes       int64   `json:"flushes"`
	Documents     int64   `json:"documents"`
	Events        int64   `json:"events"`
	Matches       int64   `json:"matches"`
	// ExclusiveDocuments of Documents took a machine's write lock (a table
	// miss); the rest were filtered on shared tables, in parallel.
	ExclusiveDocuments int64 `json:"exclusive_documents"`

	DurablePumps int `json:"durable_pumps"`
	// Replayed documents routed from the publish-time match journal, and
	// those the pumps had to filter again (0 and 0 without a WAL).
	JournalHits   int64 `json:"journal_hits"`
	JournalMisses int64 `json:"journal_misses"`

	Trace traceSnapshot `json:"trace"`
}

type traceSnapshot struct {
	Enabled     bool                `json:"enabled"`
	SampleEvery int                 `json:"sample_every"`
	SlowNS      int64               `json:"slow_threshold_ns"`
	Stats       trace.RecorderStats `json:"stats"`
}

func (s *Server) handleMachine(w http.ResponseWriter, r *http.Request) {
	e := s.cur.Load()
	st := e.Stats()
	snap := machineSnapshot{
		Queries:        len(e.IDs()) + e.NumMasked(),
		UniqueQueries:  s.subs.UniqueQueries(),
		Subscriptions:  s.subs.Subscriptions(),
		DedupHits:      s.subs.Hits(),
		SubsumedPairs:  int(s.subsumedPairs()),
		Layers:         e.NumLayers(),
		RemovedSlots:   e.NumMasked(),
		OrphanFilters:  e.NumOrphaned(),
		Consolidations: s.consolidations.Load(),
		Compacting:     s.consolidating.Load() != 0,
		MemoryBytes:    e.ApproxMemoryBytes(),
		ConnsRejected:  s.mConnReject.Value(),

		States:        st.States,
		TopDownStates: st.TopDownStates,
		AvgStateSize:  st.AvgStateSize,
		Lookups:       st.Lookups,
		Hits:          st.Hits,
		HitRatio:      st.HitRatio,
		Flushes:       st.Flushes,
		Documents:     st.Documents,
		Events:        st.Events,
		Matches:       st.Matches,

		ExclusiveDocuments: st.ExclusiveDocuments,

		DurablePumps: int(s.pumpsActive.Load()),
		Trace: traceSnapshot{
			Enabled:     s.tracer.Enabled(),
			SampleEvery: s.tracer.SampleEvery(),
			SlowNS:      s.tracer.SlowThreshold().Nanoseconds(),
			Stats:       s.tracer.Stats(),
		},
	}
	if j := s.journal; j != nil {
		snap.JournalHits, snap.JournalMisses = j.hits.Load(), j.missTotal()
	}
	s.connMu.Lock()
	snap.Connections = len(s.conns)
	for cn := range s.conns {
		snap.QueueDepth += cn.queueDepth()
	}
	s.connMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}
