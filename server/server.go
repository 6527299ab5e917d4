package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	xpushstream "repro"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config configures a Server. The zero value listens on a random loopback
// port with drop-newest backpressure and no metrics endpoint.
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
	// MaxDocBytes bounds a published document, mirroring the bound
	// sax.StreamDocumentsLimit puts on the client's streaming publish path
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

	// SnapshotPath enables warm-start: on boot, if the file exists, the
	// workload and machine state are restored from it; Checkpoint and
	// Shutdown write it.
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

// errDraining rejects work arriving during graceful shutdown.
var errDraining = errors.New("server: draining")

// Server is the broker: it owns the listener, the subscription table, the
// copy-on-write filter engine, and the per-subscriber delivery queues.
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
	// compaction swap). Publishes take no server lock: they filter on
	// whichever generation cur holds, concurrently (the engine is safe for
	// that), so a subscription change derives the next engine without
	// stalling them (control.go).
	ctl sync.Mutex
	cur atomic.Pointer[xpushstream.Engine]

	// Background compaction (compact.go): compactKick wakes the one
	// compaction goroutine; maxRemoved is its removed-slot trigger
	// (compactRemovedSlots, or a test's; negative = never).
	compactKick chan struct{}
	maxRemoved  int

	// subs is the workload dedup registry: canonical filter -> one
	// compiled machine query + the fan-out set of subscriptions sharing
	// it, keyed by the engine's filter id. Subscriptions to an
	// already-compiled filter only touch the registry — no swap, no engine
	// derivation.
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
func New(cfg Config) (*Server, error) { return newServer(cfg, journalSlots, compactRemovedSlots) }

// newServer is New with two sizes as parameters. Tests pass 0 journal slots
// to get the engine pass on every replay (the reference side of
// TestJournalMatchesEnginePass) or a small ring to lap it cheaply, and a
// removed-slot trigger of 1 to compact on every release or -1 for never.
func newServer(cfg Config, slots, maxRemoved int) (*Server, error) {
	if cfg.Policy == "" {
		cfg.Policy = DropNewest
	}
	if _, err := ParsePolicy(string(cfg.Policy)); err != nil {
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
		maxRemoved:  maxRemoved,
	}
	if s.tracer.Enabled() {
		s.prof = newQueryProfiler(profilerMaxQueries)
	}
	if s.wal != nil && slots > 0 {
		s.journal = newJournal(slots, s.wal.NextOffset())
	}
	e, err := s.bootEngine()
	if err != nil {
		return nil, err
	}
	s.cur.Store(e)
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
	s.bgWG.Add(1)
	go s.compactLoop()
	if cfg.SnapshotPath != "" && cfg.SnapshotInterval > 0 {
		s.bgWG.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
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
func (s *Server) Stats() xpushstream.Stats { return s.cur.Load().Stats() }

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
		return s.cur.Load().Stats()
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
		return float64(s.cur.Load().NumLayers())
	})
	s.reg.GaugeFunc("xpushserve_engine_removed_slots", "released filter slots still compiled into the current workload generation", func() float64 {
		return float64(s.cur.Load().NumMasked())
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
		"1 while the background compaction goroutine is building or swapping in a new base machine", func() float64 {
			return float64(s.consolidating.Load())
		})
	s.reg.SummaryFunc("xpushserve_consolidation_duration_seconds",
		"duration of each background compaction, pin to swap", []float64{0.5, 0.9, 0.99},
		s.consolidateLat.Snapshot)
	s.reg.HistogramFunc("xpushserve_consolidation_duration_histogram_seconds",
		"duration of each background compaction, pin to swap (log buckets)", s.consolidateLat.Snapshot)
	s.reg.SummaryVecFunc("xpushserve_consolidation_phase_duration_seconds",
		"background compaction time by phase: compile (recompile off to the side), swap (re-apply the delta under the control lock)", []float64{0.5, 0.9, 0.99},
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
		cn := s.newConn(nc)
		s.conns[cn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			cn.ss.Serve()
			cn.teardown()
			s.connMu.Lock()
			delete(s.conns, cn)
			s.connMu.Unlock()
		}()
	}
}

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

// Checkpoint writes a workload snapshot so the next boot starts with a warm
// machine. The machines are read (under their read locks, beside publishes)
// into an in-memory buffer; disk I/O holds no lock.
func (s *Server) Checkpoint() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("server: no SnapshotPath configured")
	}
	var buf bytes.Buffer
	if err := s.cur.Load().WriteWorkloadSnapshot(&buf); err != nil {
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
		cn.ss.Close()
	}
	s.wg.Wait()
	// A compaction in flight finishes the phase it is in and is then
	// discarded; once the background goroutines are gone neither a swap nor
	// a periodic checkpoint can race the final checkpoint.
	s.bgWG.Wait()
	if s.cfg.SnapshotPath != "" {
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
