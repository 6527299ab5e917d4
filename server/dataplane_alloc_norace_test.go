//go:build !race

// The race detector instruments allocations, so the count is only exact
// without it.

package server_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/server"
)

// TestDataPlaneAllocs is the broker's counted budget: heap objects per
// published-and-delivered document, counted process-wide (broker, publisher
// and subscriber share the process) over loopback TCP after a warm-up. A
// publish keeps its document (the frame payload, which the deliveries and
// the log batch hold) and, for ephemeral subscribers, the slice of matched
// subscription ids its delivery carries; frame headers, log batch buffers,
// replay ids, the pumps' wake-ups and the client's frames and ids are
// reused. The warm-up fills the match journal's ring. The ceilings are the
// measured counts plus half an object.
func TestDataPlaneAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
		ceiling float64
	}{
		// Measured 2.0: the document and the delivery's ids.
		{"fanout", false, 2.5},
		// Measured 2.5: the document, the log append's Pending, the batch
		// and its two channels shared by the documents of one group
		// commit, and the cursor file that every 64th document's ack
		// writes.
		{"durable", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := dataPlaneAllocs(t, tc.durable)
			t.Logf("%.2f allocations per document", got)
			if got > tc.ceiling {
				t.Errorf("%.2f allocations per published-and-delivered document, want <= %.1f", got, tc.ceiling)
			}
		})
	}
}

// dataPlaneAllocs runs a broker, a pipelined publisher (window 64) and one
// subscriber connection, and returns the heap objects allocated per document
// once warm. A durable subscriber acks every 64th delivery.
func dataPlaneAllocs(t *testing.T, durable bool) float64 {
	const (
		warm     = 5000
		measured = 4000
		ackEvery = 64
	)
	var srv *server.Server
	if durable {
		base := t.TempDir()
		srv, _, _ = walServer(t, filepath.Join(base, "wal"), server.Config{Policy: server.Block})
	} else {
		srv = startServer(t, server.Config{Policy: server.Block, QueueDepth: 1024})
	}
	var delivered, acked atomic.Int64
	var sub *client.Client
	sub, err := client.Dial(srv.Addr(), client.Options{Timeout: 10 * time.Second, OnDeliver: func(d client.Delivery) {
		if n := delivered.Add(1); d.Durable && n%ackEvery == 0 {
			sub.Ack(d.Offset)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	for i, q := range []string{`//order[total > 1000]`, `//order/item`, `/order[@region = "eu"]`} {
		if durable {
			_, _, err = sub.SubscribeDurable("budget", q)
		} else {
			_, err = sub.Subscribe(q)
		}
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
	}
	pub := dialSub(t, srv.Addr(), nil)
	p, err := pub.PublishPipelined(64, func(r client.PublishResult) {
		if r.Err != nil {
			t.Errorf("publish %d: %v", r.Seq, r.Err)
		}
		acked.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	docs := make([][]byte, 64)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(`<order region="eu" seq="%d"><total>%d</total>%s</order>`,
			i, 1000+i*37, strings.Repeat(`<item sku="p-123"><qty>2</qty></item>`, 40+i)))
	}
	run := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := p.Publish(docs[i%len(docs)]); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(from + n)
		deadline := time.Now().Add(20 * time.Second)
		for acked.Load() < want || delivered.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d acks and %d deliveries of %d documents", acked.Load(), delivered.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	run(0, warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(warm, measured)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / measured
}
