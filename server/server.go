package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	xpushstream "repro"
	"repro/internal/afa"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// Backend selects the filtering deployment behind the broker.
type Backend string

const (
	// BackendEngine is a single shared engine: publishes are serialized,
	// subscription changes are cheap copy-on-write layer derivations that
	// keep the warm machine state (the default, and the only backend that
	// supports snapshot checkpoints).
	BackendEngine Backend = "engine"
	// BackendPool runs publishes concurrently on a pool of engine clones
	// (documents are embarrassingly parallel). Subscription changes
	// rebuild the pool, so it fits mostly-static workloads under heavy
	// publish traffic. It exists because the engine backend filters one
	// document at a time: with 64 preloaded filters and one pipelined
	// publisher (window 64, Workers 2, 2 vCPU, protein documents) the pool
	// ran 19.6-20.5k docs/s against the engine's 12.6-15.6k, while a
	// SUBSCRIBE of a new filter at 200+ filters cost 85 ms against 0.33 ms.
	// It goes when the engine backend is itself concurrent (ROADMAP item 5).
	BackendPool Backend = "pool"
)

// ParseBackend validates a backend name from configuration.
func ParseBackend(s string) (Backend, error) {
	switch b := Backend(s); b {
	case BackendEngine, BackendPool:
		return b, nil
	case "":
		return BackendEngine, nil
	}
	return "", fmt.Errorf("server: unknown backend %q (want %s or %s)",
		s, BackendEngine, BackendPool)
}

// Config configures a Server. The zero value listens on a random loopback
// port with the engine backend, drop-newest backpressure, and no metrics
// endpoint.
type Config struct {
	// Addr is the data-plane listen address ("" = 127.0.0.1:0).
	Addr string
	// MetricsAddr serves GET /metrics and /healthz ("" = disabled).
	MetricsAddr string
	// DebugAddr serves the introspection endpoints ("" = disabled):
	// /debug/traces (recorded document traces), /debug/machine (live
	// filter-machine snapshot), /debug/pprof/* (Go profiling), plus
	// /metrics and /healthz. pprof exposes heap contents — bind it to
	// loopback or a trusted network.
	DebugAddr string

	// TraceSample enables head sampling: one of every TraceSample published
	// documents is traced end to end (PUBLISH receive through the last
	// DELIVER write, including WAL fsync and queue wait). 0 disables.
	TraceSample int
	// TraceSlow enables tail capture: every document is measured and any
	// whose end-to-end latency exceeds the threshold is kept in a separate
	// slow-trace ring regardless of sampling. 0 disables. With both
	// TraceSample and TraceSlow zero, tracing is compiled in but fully
	// disabled and the publish hot path stays zero-allocation.
	TraceSlow time.Duration

	// Backend selects the filtering deployment ("" = BackendEngine).
	Backend Backend
	// Workers sets the pool size (<= 0 = GOMAXPROCS).
	Workers int
	// Engine is the compile configuration for the filter workload.
	Engine xpushstream.Config
	// InitialQueries is the boot workload (e.g. for warm-start
	// benchmarks); its filters are unbound until a subscriber claims new
	// ones, but they warm the machine.
	InitialQueries []string

	// Policy selects the slow-subscriber backpressure policy
	// ("" = DropNewest).
	Policy Policy
	// QueueDepth bounds each subscriber's delivery queue (<= 0 = 128).
	QueueDepth int
	// BlockDeadline is the Block policy's maximum wait for queue space
	// (<= 0 = 1s).
	BlockDeadline time.Duration

	// AsyncPublishWindow bounds how many PublishAsync frames one connection
	// may have in flight before its read loop stops consuming new frames
	// (<= 0 = 256). The window is the server-side backstop; clients window
	// themselves via Client.PublishPipelined.
	AsyncPublishWindow int

	// MaxConns bounds concurrent connections (0 = unlimited).
	MaxConns int
	// MaxDocBytes bounds a published document, mirroring
	// sax.Splitter.MaxDocBytes on the streaming publish path
	// (0 = 64 MiB). It is enforced as the frame payload limit.
	MaxDocBytes int
	// ReadTimeout is the per-frame read deadline for connections with no
	// active subscriptions (0 = none). Subscriber connections are exempt:
	// they legitimately go quiet forever.
	ReadTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (0 = none).
	WriteTimeout time.Duration

	// WAL, when set, makes publishing durable: every document is appended
	// to the log (assigned a monotonic offset) before fan-out, and durable
	// subscriptions replay from it. Use WrapWAL to pass a *wal.Log.
	WAL DocLog
	// Cursors persists durable subscribers' replay cursors; durable
	// subscriptions require it alongside WAL.
	Cursors CursorStore

	// DedupDisabled turns off workload-level query deduplication: every
	// subscription compiles its own machine query as in pre-dedup
	// brokers. It is the reference side of TestDedupDifferentialMatchSets
	// and nothing else sets it: no flag or environment variable reaches
	// it, and zipfian workloads cost dramatically more this way.
	DedupDisabled bool
	// ConsolidateRemoved triggers a background compaction once this many
	// removed filter slots have accumulated (0 = default 256, negative =
	// never). Compaction recompiles the live workload into one machine off
	// the publish and subscribe paths, warms it on recent documents and
	// swaps it in (compact.go); it also runs, whatever this is set to, when
	// the layers above the base machine outgrow compactTailFilters.
	ConsolidateRemoved int

	// SnapshotPath enables warm-start: on boot, if the file exists, the
	// workload and machine state are restored from it (engine backend
	// only); Checkpoint and Shutdown write it.
	SnapshotPath string
	// SnapshotInterval enables periodic checkpoints (0 = only on
	// Shutdown).
	SnapshotInterval time.Duration

	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) maxDocBytes() int {
	if c.MaxDocBytes > 0 {
		return c.MaxDocBytes
	}
	return 64 << 20
}

func (c *Config) blockDeadline() time.Duration {
	if c.BlockDeadline > 0 {
		return c.BlockDeadline
	}
	return time.Second
}

func (c *Config) asyncPublishWindow() int {
	if c.AsyncPublishWindow > 0 {
		return c.AsyncPublishWindow
	}
	return 256
}

func (c *Config) consolidateRemoved() int {
	if c.ConsolidateRemoved != 0 {
		return c.ConsolidateRemoved
	}
	return 256
}

// errDraining rejects work arriving during graceful shutdown.
var errDraining = errors.New("server: draining")

// deadKey marks a removed engine slot in core.keys: it is never registered
// in the dedup registry, so fan-out lookups skip it.
const deadKey = ^uint64(0)

// core is one immutable generation of the broker's workload: the compiled
// backend plus the engine-index -> registry-key translation. Workload
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

	engine *xpushstream.Engine // BackendEngine
	pool   *xpushstream.Pool   // BackendPool
}

func (c *core) stats() xpushstream.Stats {
	if c.pool != nil {
		return c.pool.Stats()
	}
	return c.engine.Stats()
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

// Server is the broker: it owns the listener, the subscription table, the
// copy-on-write filter core, and the per-subscriber delivery queues.
type Server struct {
	cfg Config

	ln       net.Listener
	mln      net.Listener
	dln      net.Listener
	httpSrv  *http.Server
	debugSrv *http.Server
	reg      *obs.Registry
	tracer   *trace.Recorder // nil when tracing is disabled

	// ctl serializes control-plane changes (subscribe/unsubscribe/
	// compaction swap); pubMu serializes filtering on the engine backend
	// (an engine processes one stream at a time). They are independent: a
	// subscription change builds the next core without stalling publishes
	// on the current one.
	ctl   sync.Mutex
	pubMu sync.Mutex
	cur   atomic.Pointer[core]

	// Background compaction (compact.go): compactKick wakes the one
	// compaction goroutine, recent holds the documents it warms a new base
	// machine on (guarded by pubMu).
	compactKick chan struct{}
	recent      docRing

	// subs is the workload dedup registry: canonical filter -> one
	// compiled machine query + the fan-out set of subscriptions sharing
	// it. Subscriptions to an already-compiled filter only touch the
	// registry — no core swap, no engine derivation.
	subs *workload.Dedup[*conn]

	// Workload-analysis metric cache (Theorem 6.1 subsumption pairs over
	// the unique queries): recomputed on scrape only after the unique
	// workload changed.
	anMu    sync.Mutex
	anDirty bool
	anPairs float64

	draining atomic.Bool

	// Durable delivery (nil / empty unless Config.WAL is set).
	wal      DocLog
	cursors  CursorStore
	durMu    sync.Mutex
	durables map[string]*conn // durable name -> owning connection
	noteMu   sync.Mutex
	walNote  chan struct{} // closed-and-replaced on every append
	journal  *journal      // publish-time matches by log offset (journal.go)

	connMu sync.Mutex
	conns  map[*conn]struct{}

	wg sync.WaitGroup
	// stop ends the background goroutines (checkpoint loop, compaction);
	// bgWG waits for them.
	stop     chan struct{}
	bgWG     sync.WaitGroup
	closeOne sync.Once

	// prof is the per-query cost profiler, fed only by traced documents
	// (nil when tracing is disabled — the same nil discipline as tracer, so
	// the untraced hot path never touches it).
	prof *queryProfiler

	// Metrics.
	consolidations atomic.Int64 // background compactions swapped in
	consolidating  atomic.Int64 // 1 while a compaction is in flight (in-progress gauge)
	tierMerges     atomic.Int64 // tail layers absorbed by WithQueries' tier rule on subscribe
	pumpsActive    atomic.Int64 // running durable pump goroutines
	mPublishes     *obs.Counter
	mPublishErrs   *obs.Counter
	mDeliveries    *obs.Counter
	mConnReject    *obs.Counter
	mDropped       map[Policy]*obs.Counter
	mAcks          *obs.Counter
	mDurDeliver    *obs.Counter
	deliverLat     obs.Histogram
	subLat         obs.Histogram // SUBSCRIBE round-trip handling latency
	unsubLat       obs.Histogram // UNSUBSCRIBE round-trip handling latency
	consolidateLat obs.Histogram // duration of each compaction, pin to swap
	phaseLat       [len(compactPhases)]obs.Histogram
	mCompactFails  *obs.Counter
}

// New compiles (or warm-starts) the workload, starts the listeners, and
// returns a serving broker.
func New(cfg Config) (*Server, error) { return newServer(cfg, journalSlots) }

// newServer is New with the match journal's size as a parameter: tests pass
// 0 to get the engine pass on every replay (the reference side of
// TestJournalMatchesEnginePass) or a small ring to lap it cheaply.
func newServer(cfg Config, slots int) (*Server, error) {
	if cfg.Backend == "" {
		cfg.Backend = BackendEngine
	}
	if cfg.Policy == "" {
		cfg.Policy = DropNewest
	}
	if _, err := ParsePolicy(string(cfg.Policy)); err != nil {
		return nil, err
	}
	if _, err := ParseBackend(string(cfg.Backend)); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		conns:    map[*conn]struct{}{},
		reg:      obs.NewRegistry(),
		tracer:   trace.New(cfg.TraceSample, cfg.TraceSlow),
		stop:     make(chan struct{}),
		wal:      cfg.WAL,
		cursors:  cfg.Cursors,
		durables: map[string]*conn{},
		walNote:  make(chan struct{}),
		subs:     workload.NewDedup[*conn](),
		anDirty:  true,

		compactKick: make(chan struct{}, 1),
	}
	if s.tracer.Enabled() {
		s.prof = newQueryProfiler(profilerMaxQueries)
	}
	if s.wal != nil && slots > 0 {
		s.journal = newJournal(slots, s.wal.NextOffset())
	}
	c, err := s.bootCore()
	if err != nil {
		return nil, err
	}
	s.cur.Store(c)
	s.registerMetrics()

	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	s.ln, err = net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.MetricsAddr != "" {
		s.mln, err = net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			s.ln.Close()
			return nil, err
		}
		s.httpSrv = &http.Server{Handler: s.reg.NewMuxWithStatus(s.healthStatus)}
		go s.httpSrv.Serve(s.mln)
	}
	if cfg.DebugAddr != "" {
		s.dln, err = net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			s.ln.Close()
			if s.mln != nil {
				s.mln.Close()
			}
			return nil, err
		}
		s.debugSrv = &http.Server{Handler: s.debugMux()}
		go s.debugSrv.Serve(s.dln)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.Backend == BackendEngine {
		s.bgWG.Add(1)
		go s.compactLoop()
	}
	if cfg.SnapshotPath != "" && cfg.SnapshotInterval > 0 {
		s.bgWG.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// bootCore builds the boot workload: from the snapshot file when warm-start
// is configured and the file exists, otherwise from InitialQueries. Every
// boot filter is registered and pinned in the dedup registry: pinned
// entries stay compiled (and keep counting as publish matches) with zero
// subscribers, and a later subscriber to the same canonical filter rides
// the already-warm machine query.
func (s *Server) bootCore() (*core, error) {
	if s.cfg.SnapshotPath != "" && s.cfg.Backend == BackendEngine {
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
	// Collapse duplicate boot filters onto one engine slot (unless dedup
	// is disabled), canonicalizing each.
	var canon []string
	seen := map[string]int{}
	for _, q := range s.cfg.InitialQueries {
		cq, err := xpath.Canonicalize(q)
		if err != nil {
			return nil, fmt.Errorf("server: initial query %q: %w", q, err)
		}
		if _, dup := seen[cq]; dup && !s.cfg.DedupDisabled {
			continue
		}
		seen[cq] = len(canon)
		canon = append(canon, cq)
	}
	c, err := s.buildCore(canon)
	if err != nil {
		return nil, err
	}
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
		// A snapshot written by a dedup-disabled broker can hold
		// duplicate texts; only the first copy of each canonical form is
		// shared, the rest stay private slots.
		_, taken := s.subs.Resolve(q)
		key := s.subs.Register(q, !taken && !s.cfg.DedupDisabled)
		s.subs.Pin(key)
		c.keys[i] = key
		c.keyIdx[key] = i
		c.keyHW = max(c.keyHW, key+1)
	}
	s.markAnalysisDirty()
}

// buildCore compiles a workload of canonical filter texts, none of them
// removed, for the configured backend. keys/keyIdx are left for the caller
// to assign.
func (s *Server) buildCore(canon []string) (*core, error) {
	c := &core{canon: canon, removed: make([]bool, len(canon))}
	e, err := xpushstream.Compile(canon, s.cfg.Engine)
	if err != nil {
		return nil, err
	}
	if s.cfg.Backend != BackendPool {
		c.engine = e
		return c, nil
	}
	c.pool, err = xpushstream.NewPool(e, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the data-plane listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsAddr returns the /metrics listen address ("" when disabled).
func (s *Server) MetricsAddr() string {
	if s.mln == nil {
		return ""
	}
	return s.mln.Addr().String()
}

// Stats returns the current workload generation's engine statistics.
func (s *Server) Stats() xpushstream.Stats { return s.cur.Load().stats() }

// Registry exposes the server's metric registry so embedders (like
// examples/netrouter) can add their own series next to the built-ins.
func (s *Server) Registry() *xpushstream.Registry { return s.reg }

// ConnectionsRejected reports how many connections the MaxConns limit has
// refused since boot (also exported as xpush_conns_rejected_total).
func (s *Server) ConnectionsRejected() int64 { return s.mConnReject.Value() }

// NumSubscriptions reports the number of live subscriptions (across all
// connections; several may share one compiled machine query).
func (s *Server) NumSubscriptions() int { return s.subs.Subscriptions() }

// NumUniqueQueries reports the number of distinct compiled machine queries
// serving those subscriptions (plus pinned boot filters).
func (s *Server) NumUniqueQueries() int { return s.subs.UniqueQueries() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) registerMetrics() {
	xpushstream.RegisterMetrics(s.reg, "xpush", xpushstream.StatsFunc(func() xpushstream.Stats {
		return s.cur.Load().stats()
	}))
	s.mPublishes = s.reg.Counter("xpushserve_publishes_total", "documents published to the broker")
	s.mPublishErrs = s.reg.Counter("xpushserve_publish_errors_total", "rejected or failed publishes")
	s.mDeliveries = s.reg.Counter("xpushserve_deliveries_total", "DELIVER frames written to subscribers")
	s.mConnReject = s.reg.Counter("xpushserve_connections_rejected_total", "connections refused by the max-connections limit")
	// Short-prefix alias: load harnesses and dashboards watch the xpush_*
	// namespace, and reconnect-storm scenarios need rejections observable
	// without knowing the server binary's metric prefix.
	s.reg.CounterFunc("xpush_conns_rejected_total", "connections refused by the max-connections limit", func() int64 {
		return s.mConnReject.Value()
	})
	s.mDropped = map[Policy]*obs.Counter{}
	for _, p := range []Policy{DropOldest, DropNewest, Block, Disconnect} {
		name := "xpushserve_dropped_" + strings.ReplaceAll(string(p), "-", "_") + "_total"
		s.mDropped[p] = s.reg.Counter(name, "deliveries dropped under the "+string(p)+" backpressure policy")
	}
	s.reg.CounterFunc("xpushserve_dropped_total", "deliveries dropped across all backpressure policies", func() int64 {
		var n int64
		for _, c := range s.mDropped {
			n += c.Value()
		}
		return n
	})
	s.reg.GaugeFunc("xpushserve_connections", "open broker connections", func() float64 {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		return float64(len(s.conns))
	})
	s.reg.GaugeFunc("xpushserve_subscriptions", "bound subscriber filters", func() float64 {
		return float64(s.subs.Subscriptions())
	})
	s.reg.GaugeFunc("xpush_workload_unique_queries", "distinct compiled machine queries in the dedup registry", func() float64 {
		return float64(s.subs.UniqueQueries())
	})
	s.reg.GaugeFunc("xpush_workload_subscriptions", "live subscriptions across the dedup registry's fan-out sets", func() float64 {
		return float64(s.subs.Subscriptions())
	})
	s.reg.CounterFunc("xpush_workload_dedup_hits_total", "subscriptions that reused an already-compiled machine query", func() int64 {
		return int64(s.subs.Hits())
	})
	s.reg.GaugeFunc("xpush_workload_subsumed_pairs", "filter pairs the Theorem 6.1 analysis proves subsumed among unique queries (-1 = workload too large to analyze)", s.subsumedPairs)
	s.reg.CounterFunc("xpushserve_consolidations_total", "background compactions swapped in (tail layers and removed slots folded into a new base machine)", s.consolidations.Load)
	s.mCompactFails = s.reg.Counter("xpushserve_consolidation_failures_total", "background compactions abandoned on a compile or re-apply error (the current workload generation is kept)")
	s.reg.CounterFunc("xpushserve_tier_merges_total", "tail layers absorbed into a larger one by the size-tiered merge on subscribe", s.tierMerges.Load)
	s.reg.GaugeFunc("xpushserve_engine_layers", "machines the current workload generation runs per SAX event (base plus tail layers)", func() float64 {
		if e := s.cur.Load().engine; e != nil {
			return float64(e.NumLayers())
		}
		return 1 // each pool worker runs one machine
	})
	s.reg.GaugeFunc("xpushserve_engine_removed_slots", "released filter slots still compiled into the current workload generation", func() float64 {
		c := s.cur.Load()
		return float64(len(c.removed) - c.liveQueries())
	})
	s.reg.GaugeFunc("xpushserve_queue_depth", "queued deliveries summed over subscribers", func() float64 {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		n := 0
		for cn := range s.conns {
			n += cn.queueDepth()
		}
		return float64(n)
	})
	s.reg.SummaryFunc("xpushserve_delivery_latency_seconds",
		"publish-to-DELIVER-write latency quantiles", []float64{0.5, 0.9, 0.99},
		s.deliverLat.Snapshot)
	s.reg.HistogramFunc("xpushserve_delivery_latency_histogram_seconds",
		"publish-to-DELIVER-write latency (log buckets)", s.deliverLat.Snapshot)
	// Control-plane stall instrumentation: subscribe/unsubscribe round-trip
	// handling time (frame parse through reply write) plus the compaction
	// gauge/histograms, so a control-plane stall is attributable from
	// metrics alone.
	s.reg.SummaryFunc("xpushserve_subscribe_latency_seconds",
		"SUBSCRIBE round-trip handling latency quantiles (includes durable subscribes)", []float64{0.5, 0.9, 0.99},
		s.subLat.Snapshot)
	s.reg.HistogramFunc("xpushserve_subscribe_latency_histogram_seconds",
		"SUBSCRIBE round-trip handling latency (log buckets)", s.subLat.Snapshot)
	s.reg.SummaryFunc("xpushserve_unsubscribe_latency_seconds",
		"UNSUBSCRIBE round-trip handling latency quantiles", []float64{0.5, 0.9, 0.99},
		s.unsubLat.Snapshot)
	s.reg.HistogramFunc("xpushserve_unsubscribe_latency_histogram_seconds",
		"UNSUBSCRIBE round-trip handling latency (log buckets)", s.unsubLat.Snapshot)
	s.reg.GaugeFunc("xpushserve_consolidation_in_progress",
		"1 while the background compaction goroutine is building, warming or swapping a new base machine", func() float64 {
			return float64(s.consolidating.Load())
		})
	s.reg.SummaryFunc("xpushserve_consolidation_duration_seconds",
		"duration of each background compaction, pin to swap", []float64{0.5, 0.9, 0.99},
		s.consolidateLat.Snapshot)
	s.reg.HistogramFunc("xpushserve_consolidation_duration_histogram_seconds",
		"duration of each background compaction, pin to swap (log buckets)", s.consolidateLat.Snapshot)
	s.reg.SummaryVecFunc("xpushserve_consolidation_phase_duration_seconds",
		"background compaction time by phase: compile (recompile off to the side), train (warm on recent documents), swap (re-apply the delta under the control lock)", []float64{0.5, 0.9, 0.99},
		func() []obs.LabeledSnapshot {
			out := make([]obs.LabeledSnapshot, len(compactPhases))
			for i, ph := range compactPhases {
				out[i] = obs.LabeledSnapshot{Labels: `phase="` + ph + `"`, Snap: s.phaseLat[i].Snapshot()}
			}
			return out
		})
	if s.prof != nil {
		s.registerProfilerMetrics()
	}
	if s.tracer.Enabled() {
		s.reg.CounterFunc("xpushserve_traces_started_total", "document traces begun (sampled or slow-candidate)", func() int64 {
			return s.tracer.Stats().Started
		})
		s.reg.CounterFunc("xpushserve_traces_kept_total", "document traces retained in a ring", func() int64 {
			return s.tracer.Stats().Kept
		})
		s.reg.CounterFunc("xpushserve_traces_slow_total", "document traces kept by the slow-outlier tail capture", func() int64 {
			return s.tracer.Stats().Slow
		})
	}
	obs.RegisterProcessMetrics(s.reg)
	if s.wal != nil {
		s.registerDurableMetrics()
	}
}

// ---------------------------------------------------------------------------
// Control plane: the dedup registry + copy-on-write workload swaps.

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
	if !s.cfg.DedupDisabled {
		if key, ok := s.subs.Resolve(canon); ok {
			// Dedup hit: the canonical filter is already a machine query.
			subID, _ := s.subs.Subscribe(key, cn, durable)
			cn.noteSubscribed(key, durable)
			return subID, nil
		}
	}
	cur := s.cur.Load()
	next := &core{}
	if s.cfg.Backend == BackendPool {
		// The pool recompiles; its cores never carry removed slots
		// (coreWithoutKeys compacts them away).
		next, err = s.buildCore(append(append(make([]string, 0, len(cur.canon)+1), cur.canon...), canon))
	} else {
		next.engine, err = cur.engine.WithQueries([]string{canon})
	}
	if err != nil {
		return 0, err
	}
	if next.engine != nil {
		s.tierMerges.Add(int64(cur.engine.NumLayers() + 1 - next.engine.NumLayers()))
	}
	key := s.subs.Register(canon, !s.cfg.DedupDisabled)
	next.appendSlots(cur, []string{canon}, []uint64{key})
	subID, _ := s.subs.Subscribe(key, cn, durable)
	cn.noteSubscribed(key, durable)
	s.markAnalysisDirty()
	s.swap(next)
	return subID, nil
}

// noteSubscribed raises durKeyHW over a durable subscription's registry key.
// Callers hold ctl, so raises do not race each other; the pump reads it
// without ctl.
func (cn *conn) noteSubscribed(key uint64, durable bool) {
	if durable && key >= cn.durKeyHW.Load() {
		cn.durKeyHW.Store(key + 1)
	}
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
// filters removed. The engine backend masks them copy-on-write; the pool
// backend recompiles the compacted workload.
func (s *Server) coreWithoutKeys(cur *core, keys []uint64) (*core, error) {
	if s.cfg.Backend == BackendEngine {
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
		c := &core{canon: cur.canon, keys: ks, removed: removed, keyIdx: keyIdx, keyHW: cur.keyHW, engine: derived}
		return c, nil
	}
	// The pool recompiles: compact the workload instead of masking.
	drop := make(map[uint64]bool, len(keys))
	for _, key := range keys {
		drop[key] = true
	}
	var canon []string
	var ks []uint64
	for i, key := range cur.keys {
		if cur.removed[i] || drop[key] {
			continue
		}
		canon = append(canon, cur.canon[i])
		ks = append(ks, key)
	}
	next, err := s.buildCore(canon)
	if err != nil {
		return nil, err
	}
	next.keys = ks
	next.keyHW = cur.keyHW
	next.keyIdx = make(map[uint64]int, len(ks))
	for i, key := range ks {
		next.keyIdx[key] = i
	}
	return next, nil
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

// ---------------------------------------------------------------------------
// Data plane.

// publish filters one document on the current workload generation and fans
// the matches out to subscriber queues. It returns the matched-subscription
// count (a boot-pinned filter with no subscribers counts once). On a
// WAL-backed server the document is appended to the log (and the append is
// durable per the fsync policy) before anything else — a failed append
// rejects the publish, so every accepted document is replayable.
//
// remoteID is the trace id carried on a FrameTraceFlag-marked publish (0
// for the plain frames): the upstream hop (an xpushgate) already sampled
// this document, so the node traces it unconditionally under the carried id
// and the two hops stitch into one trace.
func (s *Server) publish(doc []byte, remoteID uint64) (int, error) {
	if s.draining.Load() {
		s.mPublishErrs.Inc()
		return 0, errDraining
	}
	// tc is nil for untraced documents — the common case, and the one the
	// zero-allocation guarantee covers; every span call below is a nil
	// no-op then. The publish path holds one trace reference, released by
	// the deferred Finish; each enqueued delivery takes another, so the
	// trace completes (and its total latency is measured) at the last
	// DELIVER write, not when publish returns.
	tc := s.beginPublishTrace(remoteID)
	defer tc.Finish()
	tc.SetAttr(trace.Root, "doc_bytes", int64(len(doc)))
	var off uint64
	if s.wal != nil {
		var err error
		if off, err = s.walAppend(doc, tc); err != nil {
			s.mPublishErrs.Inc()
			return 0, fmt.Errorf("server: wal append: %w", err)
		}
		// Wake the durable pumps parked at the old tail once the journal
		// entry and the fan-out below are in place (they deliver
		// independently of the queues).
		defer s.walBroadcast()
	}
	c, matches, err := s.filter(doc, true, tc, trace.Root)
	keys := c.matchKeys(matches)
	// Also after a filter error, with no keys: the record stands in the log,
	// and a pump meeting it must learn that it matched nothing.
	s.journal.put(off, c.keyHW, keys)
	if err != nil {
		s.mPublishErrs.Inc()
		return 0, err
	}
	s.mPublishes.Inc()
	return s.fanout(c, keys, doc, tc), nil
}

// walAppend appends doc to the log under a "wal_append" span (with the fsync
// wait as a child span when the log records one) and returns its offset.
func (s *Server) walAppend(doc []byte, tc *trace.Ctx) (uint64, error) {
	wspan := tc.StartSpan("wal_append", trace.Root)
	defer tc.EndSpan(wspan)
	if tl, ok := s.wal.(docLogTraced); ok {
		return tl.AppendTraced(doc, tc, wspan)
	}
	return s.wal.Append(doc)
}

// beginPublishTrace starts the publish trace: locally sampled for direct
// publishes, unconditional under the carried id for remote-traced ones.
func (s *Server) beginPublishTrace(remoteID uint64) *trace.Ctx {
	if remoteID != 0 {
		return s.tracer.BeginRemote("publish", remoteID, time.Now())
	}
	return s.tracer.Begin("publish")
}

// filter runs one document through the current workload generation and
// returns that generation plus the matched engine indexes. Publishes come
// through here, and the durable replays the match journal cannot answer
// (conn.pump); spans hang off parent. tc is nil for untraced documents (the
// common case) and records nothing. The pool is internally concurrent; an
// engine processes one stream at a time, so filtering on it holds the
// publish lock. published marks a document fresh off a PUBLISH frame: its
// payload is never written again, so the compaction ring may keep a
// reference to it (a replayed document sits in the log reader's reused
// buffer).
func (s *Server) filter(doc []byte, published bool, tc *trace.Ctx, parent trace.SpanID) (*core, []int, error) {
	if c := s.cur.Load(); c.pool != nil {
		matches, err := c.pool.FilterDocumentTraced(doc, tc, parent)
		return c, matches, err
	}
	lspan := tc.StartSpan("publish_lock", parent)
	s.pubMu.Lock()
	tc.EndSpan(lspan)
	c := s.cur.Load() // reload under the lock: always the freshest generation
	matches, err := c.engine.FilterDocumentTraced(doc, tc, parent)
	if published && err == nil {
		s.recent.add(doc)
	}
	s.pubMu.Unlock()
	return c, matches, err
}

// fanout resolves matched registry keys through the dedup registry's fan-out
// sets and enqueues one delivery per matched subscriber. keys are stable
// across generations (core.matchKeys translated them on c, the generation
// the document was filtered on), so a match computed on an older core still
// routes correctly after consolidation. The returned count is the number of
// matched subscriptions (pinned boot filters with no subscribers count once
// each — the pre-dedup publish contract).
func (s *Server) fanout(c *core, keys []uint64, doc []byte, tc *trace.Ctx) int {
	if len(keys) == 0 {
		return 0
	}
	now := time.Now()
	// Group the matched subscription ids by owning subscriber; each
	// subscriber gets one delivery per document regardless of how many of
	// its subscriptions matched.
	// Per-query cost attribution, traced documents only: the filter span's
	// duration and machine telemetry are charged to every matched key, and
	// each fanned-out subscription below increments its key's fan-out count.
	// Untraced documents (tc == nil) never touch the profiler.
	if tc != nil && s.prof != nil {
		durNS, states, _ := tc.SpanCost("filter", "states_created")
		s.prof.observeFilter(keys, c.canonsOf(keys), durNS, states)
	}
	count := 0
	var single *conn // fast path: all matches belong to one subscriber
	var singleIDs []uint64
	var perConn map[*conn][]uint64
	s.subs.Fanout(keys, func(key uint64, _ bool, nsubs int, subID uint64, owner *conn, durable bool) {
		count++
		if tc != nil && s.prof != nil {
			s.prof.observeFanout(key, 1)
		}
		if nsubs == 0 || durable {
			// Pinned boot filter (no riders), or a durable subscription
			// delivered by the owner's WAL pump.
			return
		}
		switch {
		case single == nil && perConn == nil:
			single = owner
			singleIDs = append(singleIDs, subID)
		case perConn == nil && owner == single:
			singleIDs = append(singleIDs, subID)
		default:
			if perConn == nil {
				perConn = map[*conn][]uint64{single: singleIDs}
				single = nil
			}
			perConn[owner] = append(perConn[owner], subID)
		}
	})
	if single != nil {
		s.enqueue(single, delivery{doc: doc, filters: singleIDs, enq: now, tc: tc})
	}
	for owner, ids := range perConn {
		s.enqueue(owner, delivery{doc: doc, filters: ids, enq: now, tc: tc})
	}
	return count
}

// publishAsyncStaged completes one pipelined publish whose WAL append was
// already staged into a group-commit batch (pend; nil on a non-WAL server
// or when the log has no async seam — then the append runs here). The
// document is filtered FIRST and the batch outcome awaited after, so the
// filter work of consecutive pipelined publishes overlaps the shared batch
// fsync instead of serializing behind it.
func (s *Server) publishAsyncStaged(doc []byte, pend PendingAppend, remoteID uint64) (int, error) {
	tc := s.beginPublishTrace(remoteID)
	defer tc.Finish()
	tc.SetAttr(trace.Root, "doc_bytes", int64(len(doc)))
	var off uint64
	if s.wal != nil && pend == nil {
		var err error
		if off, err = s.walAppend(doc, tc); err != nil {
			s.mPublishErrs.Inc()
			return 0, fmt.Errorf("server: wal append: %w", err)
		}
	}
	c, matches, ferr := s.filter(doc, true, tc, trace.Root)
	keys := c.matchKeys(matches)
	var aerr error
	if pend != nil {
		wspan := tc.StartSpan("wal_append", trace.Root)
		off, aerr = pend.Wait()
		tc.EndSpan(wspan)
		if bs, ok := pend.(interface{ BatchSize() int }); ok {
			tc.SetAttr(wspan, "batch_size", int64(bs.BatchSize()))
		}
	}
	if s.wal != nil && (aerr == nil || off > 0) {
		// The record stands in the log — also beside an error, when Wait
		// still names an offset (wal.Pending.Wait: the batch failed its
		// fsync and could not be truncated away), and after a filter error
		// (no keys then). Journal what it matched, then wake the pumps.
		s.journal.put(off, c.keyHW, keys)
		defer s.walBroadcast()
	}
	if aerr != nil {
		// The publish is rejected even though it was filtered: the
		// document is not durable, so fanning it out would deliver a
		// document that a crash could un-accept.
		s.mPublishErrs.Inc()
		return 0, fmt.Errorf("server: wal append: %w", aerr)
	}
	if ferr != nil {
		s.mPublishErrs.Inc()
		return 0, ferr
	}
	s.mPublishes.Inc()
	return s.fanout(c, keys, doc, tc), nil
}

func (s *Server) enqueue(cn *conn, d delivery) {
	q := cn.queue()
	if q == nil {
		return // subscriber is already tearing down
	}
	// The delivery holds a trace reference until the DELIVER write (or the
	// drop point that discards it — every queue.push exit path accounts for
	// it, see delivery.release).
	d.tc.Ref()
	if q.push(d) {
		s.logf("disconnecting slow subscriber %s (policy=%s)", cn.nc.RemoteAddr(), s.cfg.Policy)
		cn.close()
	}
}

// ---------------------------------------------------------------------------
// Connections.

type conn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer

	mu        sync.Mutex
	q         *queue
	nsubs     int
	deliverWG sync.WaitGroup

	async *asyncPub // guarded by mu; lazily created on first PublishAsync

	// Durable state (zero unless the client sent SubscribeDurable).
	durName  string // guarded by mu; the cursor identity this conn owns
	resume   uint64 // guarded by mu; offset the pump started from
	pumpOn   bool   // guarded by mu
	pumpStop chan struct{}
	pumpOnce sync.Once
	pumpWG   sync.WaitGroup
	pumpOff  atomic.Uint64 // next offset the pump will replay (lag gauge)
	acked    atomic.Uint64 // persisted cursor (monotonic)
	// durKeyHW is 1 + the largest registry key any durable subscription of
	// this connection has had: a journal entry answers for the connection
	// only when it was filtered on a core whose keyHW reaches it.
	durKeyHW atomic.Uint64

	// Per-pump replay throughput (exported per durable name): log records
	// the pump has read and routed, and DeliverAt frames it wrote.
	pumpScanned   atomic.Int64
	pumpDelivered atomic.Int64

	closeOnce sync.Once
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.connMu.Unlock()
			s.mConnReject.Inc()
			WriteFrame(nc, FrameErr, []byte("server: connection limit reached"))
			nc.Close()
			continue
		}
		cn := &conn{s: s, nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10)}
		s.conns[cn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			cn.serve()
			s.connMu.Lock()
			delete(s.conns, cn)
			s.connMu.Unlock()
		}()
	}
}

func (s *Server) maxPayload() int { return s.cfg.maxDocBytes() }

// An oversized frame's payload is discarded before the connection closes
// (see serve), up to these bounds; past them the peer sees a reset.
const (
	discardMaxBytes = 16 << 20
	discardTimeout  = 250 * time.Millisecond
)

// healthStatus backs /healthz: not-ok while draining, and degraded when the
// WAL has latched a persistent storage failure (appends fail fast then —
// the broker answers but cannot accept durable publishes).
func (s *Server) healthStatus() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if h, ok := s.wal.(docLogHealth); ok {
		if err := h.Failed(); err != nil {
			return false, "degraded: " + err.Error()
		}
	}
	return true, "ok"
}

// serve runs one connection's frame loop until error or close.
func (cn *conn) serve() {
	defer cn.teardown()
	s := cn.s
	for {
		if s.cfg.ReadTimeout > 0 && !cn.hasSubs() {
			cn.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		} else {
			cn.nc.SetReadDeadline(time.Time{})
		}
		f, err := ReadFrame(cn.br, s.maxPayload())
		if err != nil {
			var big *ErrFrameTooLarge
			if errors.As(err, &big) {
				// The oversized payload was not consumed; the stream is
				// desynchronized. Report and close — but closing a socket
				// with unread bytes queued makes the kernel answer with a
				// reset, which destroys the ERR frame on its way to the
				// peer. So first discard what was declared (type byte
				// included), bounded in bytes and in time.
				cn.writeFrame(FrameErr, []byte(big.Error()))
				cn.nc.SetReadDeadline(time.Now().Add(discardTimeout))
				io.CopyN(io.Discard, cn.br, min(int64(big.Size)+1, discardMaxBytes))
			}
			return
		}
		typ := f.Type
		var remoteID uint64
		if typ&FrameTraceFlag != 0 {
			// A FrameTraceFlag-marked publish carries the upstream hop's
			// trace id before its normal payload; strip it and dispatch on
			// the base type. The flag is only defined for the publish
			// frames — anything else falls through to the unknown-type arm.
			switch base := typ &^ FrameTraceFlag; base {
			case FramePublish, FramePublishAsync:
				var terr error
				remoteID, f.Payload, terr = SplitTracedPayload(f.Payload)
				if terr != nil {
					cn.writeFrame(FrameErr, []byte(terr.Error()))
					return
				}
				typ = base
			}
		}
		switch typ {
		case FramePing:
			if cn.writeFrame(FramePong, nil) != nil {
				return
			}
		case FrameSubscribe:
			// Bind the queue before the new workload generation is
			// published, so a publish racing with this subscribe never
			// fans out to a queueless subscriber.
			cn.ensureQueue()
			t0 := time.Now()
			id, err := s.subscribe(cn, string(f.Payload), false)
			werr := cn.reply(id, err)
			s.subLat.Observe(time.Since(t0).Seconds())
			if werr != nil {
				return
			}
			if err == nil {
				cn.mu.Lock()
				cn.nsubs++
				cn.mu.Unlock()
			}
		case FrameSubscribeDurable:
			t0 := time.Now()
			name, xpath, err := ParseSubscribeDurablePayload(f.Payload)
			var id, resume uint64
			if err == nil {
				id, resume, err = s.subscribeDurable(cn, name, xpath)
			}
			if err != nil {
				werr := cn.writeFrame(FrameErr, []byte(err.Error()))
				s.subLat.Observe(time.Since(t0).Seconds())
				if werr != nil {
					return
				}
				continue
			}
			werr := cn.writeFrame(FrameOK, AppendUint64(AppendUint64(nil, id), resume))
			s.subLat.Observe(time.Since(t0).Seconds())
			if werr != nil {
				return
			}
			cn.mu.Lock()
			cn.nsubs++
			cn.mu.Unlock()
		case FrameAck:
			off, err := ParseUint64(f.Payload)
			if err != nil {
				// A malformed ack is a protocol violation; there is no ack
				// response slot, so report and drop the connection.
				cn.writeFrame(FrameErr, []byte(err.Error()))
				return
			}
			cn.handleAck(off)
		case FrameUnsubscribe:
			t0 := time.Now()
			id, err := ParseUint64(f.Payload)
			if err == nil {
				err = s.unsubscribe(cn, id)
			}
			werr := cn.reply(id, err)
			s.unsubLat.Observe(time.Since(t0).Seconds())
			if werr != nil {
				return
			}
			if err == nil {
				cn.mu.Lock()
				cn.nsubs--
				cn.mu.Unlock()
			}
		case FramePublish:
			n, err := s.publish(f.Payload, remoteID)
			if cn.reply(uint64(n), err) != nil {
				return
			}
		case FramePublishAsync:
			seq, doc, err := ParsePublishAsyncPayload(f.Payload)
			if err != nil {
				// A malformed pipelined publish desynchronizes the ack
				// sequence; report and drop the connection.
				cn.writeFrame(FrameErr, []byte(err.Error()))
				return
			}
			cn.publishAsync(seq, doc, remoteID)
		default:
			// An unknown frame type means the peer speaks a different
			// protocol revision (gate↔node version skew) or is desynchronized;
			// either way subsequent frames are untrustworthy. Name the
			// violation in a terminal PROTO_ERR frame, then close.
			cn.writeFrame(FrameProtoErr, []byte(fmt.Sprintf("server: unknown frame type 0x%02x", f.Type)))
			return
		}
	}
}

// reply writes OK(v) or Err(err).
func (cn *conn) reply(v uint64, err error) error {
	if err != nil {
		return cn.writeFrame(FrameErr, []byte(err.Error()))
	}
	return cn.writeFrame(FrameOK, AppendUint64(nil, v))
}

func (cn *conn) writeFrame(typ byte, payload []byte) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if t := cn.s.cfg.WriteTimeout; t > 0 {
		cn.nc.SetWriteDeadline(time.Now().Add(t))
	}
	if err := WriteFrame(cn.bw, typ, payload); err != nil {
		return err
	}
	return cn.bw.Flush()
}

// writeDeliverAtBuffered writes a DeliverAt frame into the connection's
// buffered writer without flushing; the durable pump coalesces a burst of
// frames under one flushFrames — the bufio layer still flushes on its own
// when the 64KB buffer fills.
func (cn *conn) writeDeliverAtBuffered(off uint64, ids []uint64, doc []byte, traceID uint64) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if t := cn.s.cfg.WriteTimeout; t > 0 {
		cn.nc.SetWriteDeadline(time.Now().Add(t))
	}
	return writeDeliverFrame(cn.bw, FrameDeliverAt, off, ids, doc, traceID)
}

// flushFrames flushes frames staged by writeDeliverAtBuffered.
func (cn *conn) flushFrames() error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if t := cn.s.cfg.WriteTimeout; t > 0 {
		cn.nc.SetWriteDeadline(time.Now().Add(t))
	}
	return cn.bw.Flush()
}

// pumpFlushEvery bounds how many DeliverAt frames the durable pump stages
// between explicit flushes while replaying a backlog.
const pumpFlushEvery = 64

// maxPubAckBatch bounds how many publish outcomes one PubAcks frame
// coalesces.
const maxPubAckBatch = 512

// asyncPub is one connection's pipelined-publish state: sem is the in-flight
// window (acquired by the read loop, so a client overrunning the window is
// paced by TCP backpressure), acks carries publish outcomes to the single
// ack-writer goroutine, which coalesces everything immediately available
// into one PubAcks frame.
type asyncPub struct {
	sem   chan struct{}
	acks  chan PubAck
	wg    sync.WaitGroup // in-flight publish workers
	ackWG sync.WaitGroup // the ack-writer goroutine
}

// ensureAsync lazily creates the pipelined-publish state and its ack writer.
func (cn *conn) ensureAsync() *asyncPub {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.async == nil {
		a := &asyncPub{
			sem:  make(chan struct{}, cn.s.cfg.asyncPublishWindow()),
			acks: make(chan PubAck, cn.s.cfg.asyncPublishWindow()),
		}
		cn.async = a
		a.ackWG.Add(1)
		go cn.ackLoop(a)
	}
	return cn.async
}

// publishAsync runs on the read loop: it stages the document's WAL append
// into the open group-commit batch (keeping the log in frame order for this
// connection) and hands the rest of the publish — filtering, the batch
// wait, fan-out, ack — to a worker, so the read loop is already parsing the
// next frame while this document's batch accumulates. That decoupling is
// what feeds multi-record batches: without it each publish would seal a
// batch of one.
func (cn *conn) publishAsync(seq uint64, doc []byte, remoteID uint64) {
	s := cn.s
	a := cn.ensureAsync()
	a.sem <- struct{}{} // in-flight window: blocks the read loop when full
	if s.draining.Load() {
		s.mPublishErrs.Inc()
		<-a.sem
		a.acks <- PubAck{Seq: seq, Err: errDraining.Error()}
		return
	}
	var pend PendingAppend
	if s.wal != nil {
		if al, ok := s.wal.(docLogAsync); ok {
			pend = al.AppendAsync(doc)
		}
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		defer func() { <-a.sem }()
		n, err := s.publishAsyncStaged(doc, pend, remoteID)
		ack := PubAck{Seq: seq, Matches: uint64(n)}
		if err != nil {
			ack.Err = err.Error()
		}
		a.acks <- ack
	}()
}

// ackLoop is the per-connection ack writer: it blocks for one outcome, then
// drains everything else already queued and writes a single PubAcks frame.
// On a write error the connection is closed but the loop keeps draining so
// publish workers never block on the acks channel.
func (cn *conn) ackLoop(a *asyncPub) {
	defer a.ackWG.Done()
	var batch []PubAck
	var buf []byte
	dead := false
	for ack := range a.acks {
		batch = append(batch[:0], ack)
	fill:
		for len(batch) < maxPubAckBatch {
			select {
			case more, ok := <-a.acks:
				if !ok {
					break fill
				}
				batch = append(batch, more)
			default:
				break fill
			}
		}
		if dead {
			continue
		}
		buf = AppendPubAcksPayload(buf[:0], batch)
		if cn.writeFrame(FramePubAcks, buf) != nil {
			dead = true
			cn.close()
		}
	}
}

// stopAsync waits out in-flight pipelined publishes and stops the ack
// writer. Called from teardown after the read loop has exited, so no new
// publishes can arrive.
func (cn *conn) stopAsync() {
	cn.mu.Lock()
	a := cn.async
	cn.mu.Unlock()
	if a == nil {
		return
	}
	a.wg.Wait()
	close(a.acks)
	a.ackWG.Wait()
}

func (cn *conn) hasSubs() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.nsubs > 0
}

// queue returns the delivery queue, nil if never subscribed.
func (cn *conn) queue() *queue {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.q
}

func (cn *conn) queueDepth() int {
	if q := cn.queue(); q != nil {
		return q.depth()
	}
	return 0
}

// ensureQueue lazily creates the delivery queue and its consumer goroutine.
func (cn *conn) ensureQueue() *queue {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.q == nil {
		s := cn.s
		cn.q = newQueue(s.cfg.QueueDepth, s.cfg.Policy, s.cfg.blockDeadline(), s.mDropped[s.cfg.Policy])
		cn.deliverWG.Add(1)
		go func() {
			defer cn.deliverWG.Done()
			cn.q.consume(cn.deliverBatch)
		}()
	}
	return cn.q
}

// deliverBatch writes one DELIVER frame per delivery, all under a single
// writer-lock acquisition and a single flush — every frame ready for this
// subscriber in one queue wakeup shares the syscall instead of paying a
// 64KB-buffer flush each. Returning false aborts the consumer. For a traced
// delivery it records the queue wait and the frame write as spans on the
// subscriber's own render track, stamps the trace id into the payload, and
// releases the delivery's trace reference.
func (cn *conn) deliverBatch(ds []delivery) bool {
	cn.wmu.Lock()
	if t := cn.s.cfg.WriteTimeout; t > 0 {
		cn.nc.SetWriteDeadline(time.Now().Add(t))
	}
	var werr error
	for i := range ds {
		d := &ds[i]
		tc := d.tc
		var traceID uint64
		var wspan trace.SpanID = trace.NoSpan
		if tc != nil {
			traceID = tc.ID
			track := tc.NextTrack()
			qw := tc.AddSpan("queue_wait", trace.Root, tc.Offset(d.enq), tc.Offset(time.Now()))
			tc.SetTrack(qw, track)
			wspan = tc.StartSpan("deliver_write", trace.Root)
			tc.SetTrack(wspan, track)
			tc.SetAttr(wspan, "filters", int64(len(d.filters)))
		}
		if werr == nil {
			werr = writeDeliverFrame(cn.bw, FrameDeliver, 0, d.filters, d.doc, traceID)
		}
		tc.EndSpan(wspan)
	}
	if werr == nil {
		werr = cn.bw.Flush()
	}
	cn.wmu.Unlock()
	now := time.Now()
	for i := range ds {
		ds[i].tc.Finish()
		if werr == nil {
			cn.s.deliverLat.Observe(now.Sub(ds[i].enq).Seconds())
		}
	}
	if werr != nil {
		return false
	}
	cn.s.mDeliveries.Add(int64(len(ds)))
	return true
}

// beginDrain stops the queue consumer after a final flush (graceful
// shutdown); the connection itself stays open until Shutdown closes it.
func (cn *conn) beginDrain() {
	if q := cn.queue(); q != nil {
		q.close()
	}
}

// close tears the connection down immediately (Disconnect policy, server
// close).
func (cn *conn) close() {
	cn.closeOnce.Do(func() { cn.nc.Close() })
}

// teardown runs when the frame loop exits: settle in-flight pipelined
// publishes, unbind filters, flush and stop the delivery consumer, close
// the socket, stop the WAL pump (the closed socket unsticks a pump blocked
// in a frame write), release the durable name.
func (cn *conn) teardown() {
	cn.stopAsync()
	cn.s.unsubscribeConn(cn)
	if q := cn.queue(); q != nil {
		q.close()
		cn.deliverWG.Wait()
		// A push racing with close can land in the buffered channel after
		// the consumer exits; release those so their traces complete.
		q.drainRelease()
	}
	cn.close()
	cn.stopPump()
	cn.s.releaseDurable(cn)
}

// ---------------------------------------------------------------------------
// Checkpoints and shutdown.

// Checkpoint writes a workload snapshot (engine backend only) so the next
// boot starts with a warm machine. The write happens under the publish
// lock against an in-memory buffer; disk I/O is outside the lock.
func (s *Server) Checkpoint() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("server: no SnapshotPath configured")
	}
	c := s.cur.Load()
	if c.engine == nil {
		return fmt.Errorf("server: checkpoints require the engine backend")
	}
	var buf bytes.Buffer
	s.pubMu.Lock()
	err := c.engine.WriteWorkloadSnapshot(&buf)
	s.pubMu.Unlock()
	if err != nil {
		return err
	}
	return xpushstream.WriteFileAtomic(s.cfg.SnapshotPath, func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
}

func (s *Server) checkpointLoop() {
	defer s.bgWG.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.Checkpoint(); err != nil {
				s.logf("checkpoint: %v", err)
			}
		case <-s.stop:
			return
		}
	}
}

// Shutdown drains the broker gracefully: stop accepting connections and
// publishes, flip /healthz to not-ready, flush every subscriber's queued
// deliveries, then close connections. ctx bounds the flush; a final
// checkpoint is written when SnapshotPath is configured. Shutdown returns
// ctx.Err() if the drain deadline expired with deliveries still queued.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()
	s.closeOne.Do(func() { close(s.stop) })

	s.connMu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for cn := range s.conns {
		conns = append(conns, cn)
	}
	s.connMu.Unlock()
	for _, cn := range conns {
		cn.beginDrain()
	}
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for _, cn := range conns {
			cn.deliverWG.Wait()
		}
	}()
	var drainErr error
	select {
	case <-flushed:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}
	for _, cn := range conns {
		cn.close()
	}
	s.wg.Wait()
	// A compaction in flight finishes the phase it is in and is then
	// discarded; once the background goroutines are gone neither a swap nor
	// a periodic checkpoint can race the final checkpoint.
	s.bgWG.Wait()
	if s.cfg.SnapshotPath != "" && s.cfg.Backend == BackendEngine {
		if err := s.Checkpoint(); err != nil {
			s.logf("final checkpoint: %v", err)
		}
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.debugSrv != nil {
		s.debugSrv.Close()
	}
	return drainErr
}

// Close shuts the broker down immediately, discarding queued deliveries.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}
