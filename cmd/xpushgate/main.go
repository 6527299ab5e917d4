// Command xpushgate runs the cluster ingress: it makes N unmodified
// xpushserve nodes look like one broker speaking the ordinary framed
// protocol. Every node holds the whole filter workload: each subscription
// goes to every node, each published document goes to one node,
// round-robin, and is acked with that node's match count, and the nodes'
// delivery streams merge back per subscriber.
//
// Usage:
//
//	xpushgate [-addr :9410] -nodes host1:9310,host2:9310 | -nodes-file hosts
//	          [-metrics-addr :9411] [-ping-interval 2s] [-max-doc-bytes 0]
//	          [-request-timeout 10s] [-dial-timeout 2s]
//	          [-trace-sample 0] [-trace-slow 0] [-node-debug addrs]
//	          [-version]
//
// Membership is static: the node set is fixed at startup, at most 256
// distinct nodes. When a node's connection dies the gate marks it down,
// fails the publishes pending on it, and publishes to the others, which
// already hold every filter. When it comes back, or when a node that is up
// fails to take a subscription, the node gets no publish until every
// subscriber connection has placed its filters there. A durable
// subscription holds its name on every node, each with its own
// cursor over its own log; the gate puts the node's index in the top byte
// of every offset it forwards and routes each ACK by it, so a node that
// restarts on its log replays what was not acked on it (DESIGN.md
// "Cluster mode").
//
// /metrics exposes per-node health (xpushgate_node_up) and per-node ack
// latency; /debug/cluster returns the same as JSON. /healthz reports
// degraded until every node is connected, naming every disconnected node.
//
// With -trace-sample N (and/or -trace-slow D) the gate traces one of every
// N publishes end to end: the sampled publish's trace id rides the
// node-bound frame, the node records its own wal/filter/deliver spans
// under that id, and /debug/cluster/traces fetches the nodes'
// /debug/traces (via -node-debug, a comma-separated list of node
// introspection addresses parallel to -nodes) and merges everything into
// one Chrome trace_event document — load it at ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/cluster"
)

func main() {
	cfg, opts, err := buildConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpushgate: %v\n", err)
		os.Exit(2)
	}
	if opts.version {
		fmt.Println(versionString())
		return
	}
	logger := log.New(os.Stderr, "xpushgate: ", log.LstdFlags)
	cfg.Logf = logger.Printf

	g, err := cluster.New(cfg)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("gating %d nodes on %s", len(cfg.Nodes), g.Addr())
	if g.MetricsAddr() != "" {
		logger.Printf("metrics on http://%s/metrics (+ /debug/cluster)", g.MetricsAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	logger.Printf("%v: shutting down", got)
	g.Close()
	logger.Printf("closed")
}

// options carries the non-Config outputs of flag parsing.
type options struct {
	version bool
}

// buildConfig parses flags into a gate configuration; factored out of main
// for testing.
func buildConfig(args []string) (cluster.Config, options, error) {
	fs := flag.NewFlagSet("xpushgate", flag.ContinueOnError)
	addr := fs.String("addr", ":9410", "subscriber-facing listen address")
	nodes := fs.String("nodes", "", "comma-separated xpushserve node addresses")
	nodesFile := fs.String("nodes-file", "", "hosts file: one node address per line, # comments")
	metricsAddr := fs.String("metrics-addr", ":9411", "metrics listen address: /metrics, /healthz, /debug/cluster (empty disables)")
	pingInterval := fs.Duration("ping-interval", cluster.DefaultPingInterval, "node health-check cadence")
	maxDocBytes := fs.Int("max-doc-bytes", 0, "published document size bound in bytes (0 = 64 MiB)")
	requestTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request node round-trip bound (also bounds a publish's wait for its node's ack)")
	dialTimeout := fs.Duration("dial-timeout", 2*time.Second, "single node dial attempt bound")
	traceSample := fs.Int("trace-sample", 0, "trace 1 of every N publishes across the cluster (0 disables)")
	traceSlow := fs.Duration("trace-slow", 0, "also keep any publish slower than this threshold (0 disables)")
	nodeDebug := fs.String("node-debug", "", "comma-separated node introspection addresses, parallel to -nodes; enables node-side span merging on /debug/cluster/traces")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return cluster.Config{}, options{}, err
	}
	if *version {
		return cluster.Config{}, options{version: true}, nil
	}
	if (*nodes == "") == (*nodesFile == "") {
		return cluster.Config{}, options{}, fmt.Errorf("exactly one of -nodes or -nodes-file is required")
	}
	var members []string
	var err error
	if *nodes != "" {
		members, err = cluster.ParseNodes(*nodes)
	} else {
		members, err = cluster.ReadNodesFile(*nodesFile)
	}
	if err != nil {
		return cluster.Config{}, options{}, err
	}
	cfg := cluster.Config{
		Addr:        *addr,
		Nodes:       members,
		MetricsAddr: *metricsAddr,
		Client: client.Options{
			Timeout:     *requestTimeout,
			DialTimeout: *dialTimeout,
			MaxDocBytes: *maxDocBytes,
		},
		PingInterval: *pingInterval,
		TraceSample:  *traceSample,
		TraceSlow:    *traceSlow,
	}
	if *nodeDebug != "" {
		dbg, err := cluster.ParseNodes(*nodeDebug)
		if err != nil {
			return cluster.Config{}, options{}, err
		}
		if len(dbg) != len(members) {
			return cluster.Config{}, options{}, fmt.Errorf("-node-debug lists %d addresses for %d nodes", len(dbg), len(members))
		}
		cfg.NodeDebug = dbg
	}
	return cfg, options{}, nil
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
	return fmt.Sprintf("xpushgate %s %s %s/%s", v, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
