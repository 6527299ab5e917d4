// Command xpushserve runs the XPush broker: subscribers register XPath
// filters over the framed TCP protocol, publishers send XML documents, and
// every document is forwarded to the subscribers whose filters match — the
// paper's message-routing application (Sec. 1) as a long-running service.
//
// Usage:
//
//	xpushserve [-addr :9310] [-metrics-addr :9311] [-debug-addr addr]
//	           [-queries filters.txt]
//	           [-policy drop-oldest|drop-newest|block|disconnect]
//	           [-queue-depth 128] [-block-deadline 1s]
//	           [-max-conns 0] [-max-doc-bytes 0] [-read-timeout 0]
//	           [-write-timeout 0] [-snapshot state.xpw] [-snapshot-interval 0]
//	           [-drain-timeout 10s]
//	           [-wal-dir dir] [-fsync always|interval|never]
//	           [-fsync-interval 100ms] [-wal-segment-bytes 67108864]
//	           [-retention 0] [-retention-bytes 0]
//	           [-trace-sample 0] [-trace-slow 0] [-trace-out trace.json]
//	           [-topdown] [-order] [-early] [-train] [-dtd schema.dtd]
//	           [-strict] [-maxstates 0] [-version]
//
// With -wal-dir the broker is durable: every published document is appended
// to a write-ahead log before fan-out, and durable subscribers (client
// SubscribeDurable) replay unacknowledged documents from their persisted
// cursor on reconnect — at-least-once delivery. -fsync trades publish
// latency against the crash-loss window; -retention / -retention-bytes bound
// the log.
//
// -trace-sample 1000 traces one of every 1000 published documents end to end
// (PUBLISH receive, WAL append, filtering with machine telemetry,
// per-subscriber queue wait, DELIVER write);
// -trace-slow 50ms additionally captures every document slower than the
// threshold regardless of sampling. Traces are served at -debug-addr's
// /debug/traces (next to /debug/machine, /debug/queries and
// /debug/pprof/*), and -trace-out writes everything retained at shutdown
// as a Chrome trace_event file — load it at ui.perfetto.dev or
// chrome://tracing. With both tracing flags zero the publish hot path is
// unaffected.
//
// Tracing also feeds the per-query cost profiler: every traced document's
// filter time, machine states and fan-out are attributed to the canonical
// queries it matched, ranked at /debug/queries and exported as top-K
// xpush_query_* metric series — the answer to "which subscription is
// expensive?".
//
// On SIGTERM or SIGINT the broker drains gracefully: it stops accepting,
// rejects new publishes, flips /healthz to not-ready, flushes every
// subscriber's queued deliveries (bounded by -drain-timeout), writes a
// final snapshot when -snapshot is set, and exits. With -snapshot, a
// restart warm-starts from the persisted workload and machine state.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	xpushstream "repro"
	"repro/server"
	"repro/wal"
)

// options carries the non-Config outputs of flag parsing.
type options struct {
	drain    time.Duration
	version  bool
	wal      *wal.Log
	traceOut string
}

func main() {
	cfg, opts, err := buildConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpushserve: %v\n", err)
		os.Exit(2)
	}
	if opts.version {
		fmt.Println(versionString())
		return
	}
	logger := log.New(os.Stderr, "xpushserve: ", log.LstdFlags)
	cfg.Logf = logger.Printf

	srv, err := server.New(cfg)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("serving on %s (policy=%s queue-depth=%d)",
		srv.Addr(), cfg.Policy, cfg.QueueDepth)
	if srv.MetricsAddr() != "" {
		logger.Printf("metrics on http://%s/metrics", srv.MetricsAddr())
	}
	if srv.DebugAddr() != "" {
		logger.Printf("introspection on http://%s/debug/traces (+ /debug/machine, /debug/queries, /debug/pprof)", srv.DebugAddr())
	}
	if r := srv.Tracer(); r.Enabled() {
		logger.Printf("tracing: sample 1/%d, slow threshold %v", r.SampleEvery(), r.SlowThreshold())
	}
	if opts.wal != nil {
		st := opts.wal.Stats()
		logger.Printf("wal: %d segments, offsets [%d, %d)", st.Segments, st.FirstOffset, st.NextOffset)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	logger.Printf("%v: draining (timeout %v)", got, opts.drain)
	ctx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	err = srv.Shutdown(ctx)
	if opts.traceOut != "" {
		if werr := writeTraceFile(srv, opts.traceOut); werr != nil {
			logger.Printf("trace dump: %v", werr)
		} else {
			logger.Printf("traces written to %s", opts.traceOut)
		}
	}
	if opts.wal != nil {
		if werr := opts.wal.Close(); werr != nil {
			logger.Printf("wal close: %v", werr)
		}
	}
	if err != nil {
		logger.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	logger.Printf("drained cleanly")
}

// writeTraceFile dumps every retained trace as a Chrome trace_event file.
func writeTraceFile(srv *server.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// versionString reports the module version (from build info, "(devel)" for
// a plain `go build`) and the Go runtime.
func versionString() string {
	v := "(unknown)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		v = bi.Main.Version
		if v == "" {
			v = "(devel)"
		}
	}
	return fmt.Sprintf("xpushserve %s %s %s/%s", v, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// buildConfig parses flags into a server configuration; factored out of
// main for testing. When -wal-dir is set the returned options carry the
// opened log; the caller owns closing it after the server shuts down.
func buildConfig(args []string) (server.Config, options, error) {
	fs := flag.NewFlagSet("xpushserve", flag.ContinueOnError)
	addr := fs.String("addr", ":9310", "data-plane listen address")
	metricsAddr := fs.String("metrics-addr", ":9311", "metrics listen address (empty disables /metrics)")
	debugAddr := fs.String("debug-addr", "", "introspection listen address: /debug/traces, /debug/machine, /debug/queries, /debug/pprof (empty disables; pprof exposes heap contents — bind to loopback)")
	traceSample := fs.Int("trace-sample", 0, "trace 1 of every N published documents end to end (0 disables sampling)")
	traceSlow := fs.Duration("trace-slow", 0, "capture every document slower than this end to end, regardless of sampling (0 disables)")
	traceOut := fs.String("trace-out", "", "write retained traces as a Chrome trace_event file on shutdown (view at ui.perfetto.dev)")
	queriesPath := fs.String("queries", "", "file with one initial XPath filter per line (warms the machine)")
	policy := fs.String("policy", "drop-newest", "slow-subscriber backpressure: drop-oldest, drop-newest, block, or disconnect")
	queueDepth := fs.Int("queue-depth", 128, "per-subscriber delivery queue bound")
	blockDeadline := fs.Duration("block-deadline", time.Second, "max publisher wait for queue space under -policy block")
	maxConns := fs.Int("max-conns", 0, "concurrent connection limit (0 = unlimited)")
	maxDocBytes := fs.Int("max-doc-bytes", 0, "published document size bound in bytes (0 = 64 MiB)")
	readTimeout := fs.Duration("read-timeout", 0, "per-frame read deadline for connections without subscriptions (0 = none)")
	writeTimeout := fs.Duration("write-timeout", 0, "per-frame write deadline (0 = none)")
	snapshot := fs.String("snapshot", "", "workload snapshot path: warm-start on boot, checkpoint on drain")
	snapshotInterval := fs.Duration("snapshot-interval", 0, "periodic checkpoint interval (0 = only on drain)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown flush bound")
	walDir := fs.String("wal-dir", "", "write-ahead log directory: enables durable publish + durable subscriptions")
	fsync := fs.String("fsync", "interval", "wal fsync policy: always, interval, or never")
	fsyncInterval := fs.Duration("fsync-interval", 100*time.Millisecond, "wal fsync period under -fsync interval")
	segmentBytes := fs.Int64("wal-segment-bytes", 64<<20, "wal segment rotation size")
	retention := fs.Duration("retention", 0, "delete sealed wal segments older than this (0 = keep)")
	retentionBytes := fs.Int64("retention-bytes", 0, "delete oldest sealed wal segments past this total size (0 = keep)")
	topdown := fs.Bool("topdown", false, "enable top-down pruning")
	order := fs.Bool("order", false, "enable the order optimization (needs -dtd)")
	early := fs.Bool("early", false, "enable early notification (implies -topdown)")
	train := fs.Bool("train", false, "warm the machine with synthetic training data (needs -dtd)")
	dtdPath := fs.String("dtd", "", "DTD file (enables -order and -train)")
	strict := fs.Bool("strict", false, "reject mixed element/text content")
	maxStates := fs.Int("maxstates", 0, "flush lazily built state tables past this count (0 = unlimited)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return server.Config{}, options{}, err
	}
	if *version {
		return server.Config{}, options{version: true}, nil
	}

	pol, err := server.ParsePolicy(*policy)
	if err != nil {
		return server.Config{}, options{}, err
	}
	fpol, err := wal.ParseFsyncPolicy(*fsync)
	if err != nil {
		return server.Config{}, options{}, err
	}
	ecfg := xpushstream.Config{
		TopDownPruning:     *topdown,
		OrderOptimization:  *order,
		EarlyNotification:  *early,
		Training:           *train,
		StrictMixedContent: *strict,
		MaxStates:          *maxStates,
	}
	if *dtdPath != "" {
		text, err := os.ReadFile(*dtdPath)
		if err != nil {
			return server.Config{}, options{}, err
		}
		d, err := xpushstream.ParseDTD(string(text))
		if err != nil {
			return server.Config{}, options{}, err
		}
		ecfg.DTD = d
	}
	var initial []string
	if *queriesPath != "" {
		initial, err = readQueries(*queriesPath)
		if err != nil {
			return server.Config{}, options{}, err
		}
	}
	if *traceSample < 0 {
		return server.Config{}, options{}, fmt.Errorf("-trace-sample: must be >= 0, got %d", *traceSample)
	}
	cfg := server.Config{
		Addr:             *addr,
		MetricsAddr:      *metricsAddr,
		DebugAddr:        *debugAddr,
		TraceSample:      *traceSample,
		TraceSlow:        *traceSlow,
		Engine:           ecfg,
		InitialQueries:   initial,
		Policy:           pol,
		QueueDepth:       *queueDepth,
		BlockDeadline:    *blockDeadline,
		MaxConns:         *maxConns,
		MaxDocBytes:      *maxDocBytes,
		ReadTimeout:      *readTimeout,
		WriteTimeout:     *writeTimeout,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapshotInterval,
	}
	opts := options{drain: *drainTimeout, traceOut: *traceOut}
	if *walDir != "" {
		if err := validateDir(*walDir); err != nil {
			return server.Config{}, options{}, fmt.Errorf("-wal-dir: %w", err)
		}
		l, err := wal.Open(wal.Options{
			Dir:            *walDir,
			SegmentBytes:   *segmentBytes,
			Fsync:          fpol,
			FsyncEvery:     *fsyncInterval,
			RetentionBytes: *retentionBytes,
			RetentionAge:   *retention,
			MaxRecordBytes: cfg.MaxDocBytes,
		})
		if err != nil {
			return server.Config{}, options{}, err
		}
		cursors, err := wal.OpenCursorStore(filepath.Join(*walDir, "cursors"))
		if err != nil {
			l.Close()
			return server.Config{}, options{}, err
		}
		cfg.WAL = server.WrapWAL(l)
		cfg.Cursors = cursors
		opts.wal = l
	}
	return cfg, opts, nil
}

// validateDir creates dir if missing and fails fast when it is not a
// writable directory (probed with a throwaway temp file), so a misconfigured
// -wal-dir aborts startup instead of failing on the first publish.
func validateDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-")
	if err != nil {
		return fmt.Errorf("not writable: %w", err)
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// readQueries loads one filter per line; blank lines and '#' comments are
// skipped.
func readQueries(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}
