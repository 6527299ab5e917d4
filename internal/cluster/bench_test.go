package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	xpushstream "repro"
	"repro/client"
	"repro/internal/load"
	"repro/internal/xpath"
	"repro/server"
)

// gateWorkload draws n canonically distinct filters and a pool of 4 KB
// documents from the load generator, the sweep benchmarks' workload shape.
func gateWorkload(tb testing.TB, n int) (filters []string, docs [][]byte) {
	spec := load.DefaultSpec()
	spec.Seed = 1
	spec.Filters = 3*n + 64 // the generator repeats itself
	spec.DocSizes = []load.SizeClass{{Bytes: 4096, Weight: 1}}
	spec.DocPool = 128
	spec.Phases = []load.Phase{{Name: "unused", Duration: time.Second}}
	plan, err := load.BuildPlan(spec)
	if err != nil {
		tb.Fatal(err)
	}
	seen := make(map[string]bool, n)
	for _, q := range plan.Filters {
		canon, err := xpath.Canonicalize(q)
		if err != nil {
			tb.Fatal(err)
		}
		if !seen[canon] {
			seen[canon] = true
			if filters = append(filters, q); len(filters) == n {
				return filters, plan.Docs[0]
			}
		}
	}
	tb.Fatalf("generator produced %d distinct filters, want %d", len(filters), n)
	return nil, nil
}

// settle publishes the document pool through the gate until a whole pass
// sends no node's machine off its shared tables, so that the clock runs on
// warm engines.
func settle(b *testing.B, pub *client.Client, docs [][]byte, nodes []*server.Server) {
	for pass := 0; pass < 200; pass++ {
		before := make([]xpushstream.Stats, len(nodes))
		for i, n := range nodes {
			before[i] = n.Stats()
		}
		for _, doc := range docs {
			// As many times in a row as there are nodes: the nodes take
			// turns, so each one sees every document.
			for range nodes {
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
			}
		}
		warm := true
		for i, n := range nodes {
			warm = warm && n.Stats().ExclusiveDocuments == before[i].ExclusiveDocuments
		}
		if warm {
			return
		}
	}
	b.Fatal("the nodes' machines never settled")
}

// cpuTime is the process's user plus system CPU time: in this benchmark the
// gate, every node, the publisher and the subscriber together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gatePipelines boots n nodes and a gate over them, subscribes filters
// through the gate on one subscriber connection, warms the nodes, and returns pubs publish pipelines through the gate, each on a
// connection of its own, and the function that closes it all.
func gatePipelines(b *testing.B, n, pubs int, filters []string, docs [][]byte) ([]*client.Pipeline, func()) {
	var nodes []*server.Server
	var addrs []string
	for i := 0; i < n; i++ {
		nodes = append(nodes, startNode(b, server.Config{}))
		addrs = append(addrs, nodes[i].Addr())
	}
	g := startGate(b, addrs, nil)
	var conns []*client.Client
	for range 1 + pubs {
		c, err := client.Dial(g.Addr(), client.Options{Timeout: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		conns = append(conns, c)
	}
	for _, f := range filters {
		if _, err := conns[0].Subscribe(f); err != nil {
			b.Fatal(err)
		}
	}
	var ps []*client.Pipeline
	for _, pub := range conns[1:] {
		p, err := pub.PublishPipelined(server.PublishWindow, nil)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	settle(b, conns[1], docs, nodes)
	return ps, func() {
		for _, c := range conns {
			c.Close()
		}
		g.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
}

// BenchmarkGateNodes prices a document through a gate over in-process
// nodes holding 2 000 generated filters: pipelined publishes through the
// gate, one subscriber connection taking the deliveries. nodes=1 and
// nodes=2 have one publisher; the pubs=4 cases split the documents over
// four publisher connections. cpu-us/doc is the whole process's CPU per
// document, so it sums the gate and every node; with the machine's
// per-event cost independent of the workload's size, a second node should
// add little.
func BenchmarkGateNodes(b *testing.B) {
	filters, docs := gateWorkload(b, 2000)
	for _, c := range []struct{ nodes, pubs int }{{1, 1}, {2, 1}, {2, 4}, {4, 4}} {
		name := fmt.Sprintf("nodes=%d", c.nodes)
		if c.pubs > 1 {
			name += fmt.Sprintf(",pubs=%d", c.pubs)
		}
		// One cluster serves every run of the sub-benchmark, and it is
		// closed before the next one boots.
		ps, stop := gatePipelines(b, c.nodes, c.pubs, filters, docs)
		b.Run(name, func(b *testing.B) {
			var acks, subs sync.WaitGroup
			var failed atomic.Int64
			done := func(r client.PublishResult) {
				if r.Err != nil {
					failed.Add(1)
				}
				acks.Done()
			}
			b.ResetTimer()
			cpu0, t0 := cpuTime(), time.Now()
			acks.Add(b.N)
			for k, p := range ps {
				subs.Add(1)
				go func() {
					defer subs.Done()
					for i := k; i < b.N; i += len(ps) {
						if _, err := p.Submit(docs[i%len(docs)], 0, done); err != nil {
							failed.Add(1)
							acks.Done()
						}
					}
				}()
			}
			subs.Wait()
			acks.Wait()
			elapsed, cpu := time.Since(t0), cpuTime()-cpu0
			b.StopTimer()
			if failed.Load() != 0 {
				b.Fatalf("%d publishes failed", failed.Load())
			}
			b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu-us/doc")
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "docs/s")
		})
		stop()
	}
}

// BenchmarkGateSubscribe prices a SUBSCRIBE through the gate over one, two
// and four in-process nodes: each op subscribes one of 2 000 generated
// filters on one connection, then unsubscribes it. subscribe-us is the
// mean SUBSCRIBE round trip, reply included, as the client sees it.
func BenchmarkGateSubscribe(b *testing.B) {
	filters, _ := gateWorkload(b, 2000)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			var addrs []string
			for range n {
				addrs = append(addrs, startNode(b, server.Config{}).Addr())
			}
			g := startGate(b, addrs, nil)
			c, err := client.Dial(g.Addr(), client.Options{Timeout: 10 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var sub time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				id, err := c.Subscribe(filters[i%len(filters)])
				sub += time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Unsubscribe(id); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sub.Nanoseconds())/1e3/float64(b.N), "subscribe-us")
		})
	}
}
