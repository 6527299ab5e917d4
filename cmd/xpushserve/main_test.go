package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/server"
)

func TestBuildConfigDefaults(t *testing.T) {
	cfg, opts, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != ":9310" || cfg.MetricsAddr != ":9311" {
		t.Errorf("addrs = %q, %q", cfg.Addr, cfg.MetricsAddr)
	}
	if cfg.Policy != server.DropNewest {
		t.Errorf("policy = %q", cfg.Policy)
	}
	if cfg.QueueDepth != 128 || cfg.BlockDeadline != time.Second {
		t.Errorf("queue = %d/%v", cfg.QueueDepth, cfg.BlockDeadline)
	}
	if opts.drain != 10*time.Second {
		t.Errorf("drain = %v", opts.drain)
	}
	if cfg.WAL != nil || opts.wal != nil {
		t.Error("WAL enabled without -wal-dir")
	}
}

func TestBuildConfigFull(t *testing.T) {
	dir := t.TempDir()
	queries := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(queries, []byte("# c\n//a[b > 1]\n\n//c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := buildConfig([]string{
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "",
		"-queries", queries,
		"-policy", "block",
		"-queue-depth", "64",
		"-block-deadline", "250ms",
		"-max-conns", "10",
		"-max-doc-bytes", "4096",
		"-snapshot", filepath.Join(dir, "s.xpw"),
		"-snapshot-interval", "5s",
		"-drain-timeout", "3s",
		"-topdown",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != server.Block || cfg.QueueDepth != 64 || cfg.BlockDeadline != 250*time.Millisecond {
		t.Errorf("policy = %q/%d/%v", cfg.Policy, cfg.QueueDepth, cfg.BlockDeadline)
	}
	if cfg.MaxConns != 10 || cfg.MaxDocBytes != 4096 {
		t.Errorf("limits = %d/%d", cfg.MaxConns, cfg.MaxDocBytes)
	}
	if len(cfg.InitialQueries) != 2 || cfg.InitialQueries[0] != "//a[b > 1]" {
		t.Errorf("initial queries = %v", cfg.InitialQueries)
	}
	if !cfg.Engine.TopDownPruning {
		t.Error("-topdown not wired through")
	}
	if cfg.SnapshotInterval != 5*time.Second || opts.drain != 3*time.Second {
		t.Errorf("intervals = %v/%v", cfg.SnapshotInterval, opts.drain)
	}
}

func TestBuildConfigTracing(t *testing.T) {
	cfg, opts, err := buildConfig([]string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "",
		"-debug-addr", "127.0.0.1:0",
		"-trace-sample", "500",
		"-trace-slow", "50ms",
		"-trace-out", "trace.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DebugAddr != "127.0.0.1:0" {
		t.Errorf("debug addr = %q", cfg.DebugAddr)
	}
	if cfg.TraceSample != 500 || cfg.TraceSlow != 50*time.Millisecond {
		t.Errorf("tracing = 1/%d, slow %v", cfg.TraceSample, cfg.TraceSlow)
	}
	if opts.traceOut != "trace.json" {
		t.Errorf("trace out = %q", opts.traceOut)
	}
	// Defaults: fully off.
	cfg, opts, err = buildConfig([]string{"-addr", "127.0.0.1:0", "-metrics-addr", ""})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DebugAddr != "" || cfg.TraceSample != 0 || cfg.TraceSlow != 0 || opts.traceOut != "" {
		t.Errorf("tracing defaults not off: %q 1/%d %v %q", cfg.DebugAddr, cfg.TraceSample, cfg.TraceSlow, opts.traceOut)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	if _, _, err := buildConfig([]string{"-policy", "bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	// The pool backend and its sizing flag are removed, not deprecated, as
	// are the WAL's static group-commit knobs (the adaptive window is the
	// one policy) and the publish window (server.PublishWindow).
	for _, args := range [][]string{
		{"-backend", "engine"}, {"-workers", "2"},
		{"-wal-batch-wait", "1ms"}, {"-wal-batch-records", "16"},
		{"-publish-window", "64"},
	} {
		if _, _, err := buildConfig(args); err == nil {
			t.Errorf("removed flag %v accepted", args)
		}
	}
	if _, _, err := buildConfig([]string{"-queries", "/nonexistent.txt"}); err == nil {
		t.Error("missing queries file accepted")
	}
	if _, _, err := buildConfig([]string{"-dtd", "/nonexistent.dtd"}); err == nil {
		t.Error("missing dtd file accepted")
	}
	if _, _, err := buildConfig([]string{"-fsync", "sometimes"}); err == nil {
		t.Error("bogus fsync policy accepted")
	}
	if _, _, err := buildConfig([]string{"-trace-sample", "-1"}); err == nil {
		t.Error("negative trace sample accepted")
	}
}

func TestBuildConfigWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal") // create-if-missing path
	cfg, opts, err := buildConfig([]string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "",
		"-wal-dir", dir, "-fsync", "never",
		"-wal-segment-bytes", "4096", "-retention-bytes", "65536",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WAL == nil || cfg.Cursors == nil || opts.wal == nil {
		t.Fatal("-wal-dir did not wire the WAL and cursor store")
	}
	defer opts.wal.Close()
	if _, err := cfg.WAL.AppendAsync([]byte("<x/>")).Wait(); err != nil {
		t.Fatalf("append through wired WAL: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "cursors")); err != nil || !fi.IsDir() {
		t.Errorf("cursor dir not created: %v", err)
	}
}

func TestBuildConfigWALUnwritable(t *testing.T) {
	// A path below a regular file cannot be created, even running as root
	// (where permission-bit checks would pass).
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := buildConfig([]string{"-wal-dir", filepath.Join(blocker, "wal")})
	if err == nil || !strings.Contains(err.Error(), "-wal-dir") {
		t.Fatalf("unwritable -wal-dir accepted: %v", err)
	}
}

func TestVersionFlag(t *testing.T) {
	_, opts, err := buildConfig([]string{"-version"})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.version {
		t.Fatal("-version not reported")
	}
	v := versionString()
	if !strings.Contains(v, "xpushserve") || !strings.Contains(v, "go1") {
		t.Errorf("versionString() = %q, want name and Go runtime", v)
	}
}

// TestServeAndDrain boots the broker through the same configuration main
// uses (WAL included) and exercises the drain path New→Shutdown without
// signals.
func TestServeAndDrain(t *testing.T) {
	cfg, opts, err := buildConfig([]string{
		"-addr", "127.0.0.1:0", "-metrics-addr", "",
		"-wal-dir", filepath.Join(t.TempDir(), "wal"), "-fsync", "never",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := opts.wal.Close(); err != nil {
		t.Fatal(err)
	}
}
