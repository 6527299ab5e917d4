package cluster

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/server"
)

// chromeEvent is one Chrome trace_event entry of the merged export.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	Pid  uint64         `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestGateCrossHopTraceMerge is the acceptance e2e for cross-hop tracing:
// one publish through a 2-node gated cluster with sampling 1/1 yields one
// merged Chrome trace containing the gate's ingress root, one node hop, and
// that node's own filter and deliver spans under the same trace id. The
// other node never sees the document.
func TestGateCrossHopTraceMerge(t *testing.T) {
	n1 := startNode(t, server.Config{DebugAddr: "127.0.0.1:0", TraceSample: 1})
	n2 := startNode(t, server.Config{DebugAddr: "127.0.0.1:0", TraceSample: 1})
	nodes := []string{n1.Addr(), n2.Addr()}
	g := startGate(t, nodes, func(c *Config) {
		c.MetricsAddr = "127.0.0.1:0"
		c.TraceSample = 1
		c.NodeDebug = []string{n1.DebugAddr(), n2.DebugAddr()}
	})

	var got atomic.Int64
	c, err := client.Dial(g.Addr(), client.Options{
		Timeout:   5 * time.Second,
		OnDeliver: func(client.Delivery) { got.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range []string{"//a", "//b"} {
		if _, err := c.Subscribe(f); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.Publish([]byte(`<r><a/><b/></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("publish matched %d, want 2", n)
	}
	waitUntil(t, "delivery", func() bool { return got.Load() == 1 })

	// The node trace finishes asynchronously with the last DELIVER write;
	// poll the merged export until the hop is present.
	var events []chromeEvent
	waitUntil(t, "merged trace", func() bool {
		body := httpGet(t, "http://"+g.MetricsAddr()+"/debug/cluster/traces")
		if err := json.Unmarshal([]byte(body), &events); err != nil {
			t.Fatalf("merged trace is not valid JSON: %v\n%s", err, body)
		}
		return strings.Contains(body, "deliver_write") &&
			strings.Contains(body, "gate_publish")
	})

	// The gate ingress root pins the merged trace's pid.
	var pid uint64
	for _, ev := range events {
		if ev.Name == "gate_publish" && ev.Cat == "root" {
			pid = ev.Pid
		}
	}
	if pid == 0 {
		t.Fatalf("no gate_publish root in merged trace: %+v", events)
	}
	count := map[string]int{}
	threads := map[string]bool{}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Pid == pid {
			count[ev.Name]++
		}
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == pid {
			if n, ok := ev.Args["name"].(string); ok {
				threads[n] = true
			}
		}
	}
	var hop string
	for _, node := range nodes {
		if count["publish "+node] > 0 {
			if hop != "" {
				t.Errorf("the publish reached both %s and %s", hop, node)
			}
			hop = node
		}
	}
	if hop == "" {
		t.Errorf("merged trace %d has no node hop span", pid)
	}
	if count["publish "+hop] != 1 || count["filter"] != 1 || count["deliver_write"] != 1 {
		t.Errorf("merged trace has %d hop, %d filter and %d deliver_write spans, want one each",
			count["publish "+hop], count["filter"], count["deliver_write"])
	}
	for _, node := range nodes {
		row := false
		for th := range threads {
			row = row || strings.Contains(th, node)
		}
		if row != (node == hop) {
			t.Errorf("thread row for node %s: %v, want %v (threads: %v)", node, row, node == hop, threads)
		}
	}
	if t.Failed() {
		t.Fatalf("events: %+v", events)
	}
}

// TestGatePropagatesPublisherTraceID: a publisher that traced the document
// upstream wins over gate sampling — the gate hop adopts the carried id.
func TestGatePropagatesPublisherTraceID(t *testing.T) {
	n1 := startNode(t, server.Config{DebugAddr: "127.0.0.1:0", TraceSample: 1})
	g := startGate(t, []string{n1.Addr()}, func(c *Config) {
		c.MetricsAddr = "127.0.0.1:0"
		c.TraceSample = 1
	})

	c, err := client.Dial(g.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Subscribe("//a"); err != nil {
		t.Fatal(err)
	}
	const carried = uint64(0xabcdef01)
	if _, err := c.PublishTraced([]byte(`<a/>`), carried); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "gate trace under the carried id", func() bool {
		for _, tr := range g.tracer.Traces() {
			if tr.ID == carried && tr.Remote {
				return true
			}
		}
		return false
	})
	// The node behind the gate adopted the same id in turn.
	waitUntil(t, "node trace under the carried id", func() bool {
		for _, tr := range n1.Tracer().Traces() {
			if tr.ID == carried && tr.Remote {
				return true
			}
		}
		return false
	})
}
