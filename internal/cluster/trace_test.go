package cluster

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/xpath"
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
// merged Chrome trace containing the gate's ingress root, a fan-out span
// per node, the ack-aggregation wait, and both nodes' own filter and
// deliver spans under the same trace id.
func TestGateCrossHopTraceMerge(t *testing.T) {
	n1 := startNode(t, server.Config{DebugAddr: "127.0.0.1:0", TraceSample: 1})
	n2 := startNode(t, server.Config{DebugAddr: "127.0.0.1:0", TraceSample: 1})
	nodes := []string{n1.Addr(), n2.Addr()}
	g := startGate(t, nodes, func(c *Config) {
		c.MetricsAddr = "127.0.0.1:0"
		c.TraceSample = 1
		c.NodeDebug = []string{n1.DebugAddr(), n2.DebugAddr()}
	})

	// Pick one filter owned by each node so a single matching publish fans
	// out to both. The ring hashes the nodes' ephemeral addresses: 26
	// candidates, so that no address pair realistically owns them all (8
	// did, about one run in 128).
	byNode := map[string]string{}
	doc := []byte("<r>")
	for ch := 'a'; ch <= 'z'; ch++ {
		f := "//" + string(ch)
		doc = append(doc, "<"+string(ch)+"/>"...)
		canon, err := xpath.Canonicalize(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := byNode[g.ring.Owner(canon)]; !ok {
			byNode[g.ring.Owner(canon)] = f
		}
	}
	doc = append(doc, "</r>"...)
	if len(byNode) != 2 {
		t.Fatalf("could not find filters for both nodes: %v", byNode)
	}

	var got atomic.Int64
	c, err := client.Dial(g.Addr(), client.Options{
		Timeout:   5 * time.Second,
		OnDeliver: func(client.Delivery) { got.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range byNode {
		if _, err := c.Subscribe(f); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("publish matched %d, want 2 (one per node)", n)
	}
	waitUntil(t, "deliveries", func() bool { return got.Load() == 2 })

	// The node traces finish asynchronously with the last DELIVER write;
	// poll the merged export until both hops are present.
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
	want := map[string]int{
		"fanout " + nodes[0]: 0,
		"fanout " + nodes[1]: 0,
		"ack_wait":           0,
		"filter":             0,
		"deliver_write":      0,
	}
	threads := map[string]bool{}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Pid == pid {
			if _, ok := want[ev.Name]; ok {
				want[ev.Name]++
			}
		}
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == pid {
			if n, ok := ev.Args["name"].(string); ok {
				threads[n] = true
			}
		}
	}
	for name, count := range want {
		if count == 0 {
			t.Errorf("merged trace %d missing span %q", pid, name)
		}
	}
	// Both node hops must contribute their filter span (one per node).
	if want["filter"] != 2 {
		t.Errorf("merged trace has %d filter spans, want one per node", want["filter"])
	}
	for _, node := range nodes {
		found := false
		for th := range threads {
			if strings.Contains(th, node) {
				found = true
			}
		}
		if !found {
			t.Errorf("no thread row for node %s (threads: %v)", node, threads)
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
