// Netrouter: XML packet routing over TCP — the mesh-based content routing
// application the paper cites as a driver for XML stream processing. The
// demo is a thin consumer of the repro/server broker and repro/client
// connection: subscribers register XPath filters over the framed protocol,
// a producer publishes XML packets, and the broker forwards each packet to
// every subscriber whose filter matches. Subscriptions land while traffic
// flows: the broker inserts them as copy-on-write machine layers (the
// paper's layered-machine update path) without discarding warm state.
//
// Slow subscribers are handled by the broker's backpressure policy instead
// of a silent drop: this demo runs the lossless "block" policy, and the
// scraped xpushserve_dropped_total counter proves no delivery was lost.
//
// The demo runs the broker, three subscribers, and a producer in one
// process over real loopback TCP. The broker serves GET /metrics
// (Prometheus text — filter-latency and delivery-latency quantiles,
// documents/events/bytes, the table hit ratio, the drop counter)
// and GET /healthz on a second loopback port; the demo scrapes it at the
// end to show the machine warming up, then shuts the broker down
// gracefully so every queued delivery is flushed before exit.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/server"
)

// subscriber connects, registers filters, and counts received packets until
// the broker closes the connection (at drain time).
type subscriber struct {
	name  string
	conn  *client.Client
	count atomic.Int64
}

func newSubscriber(addr, name string, filters []string) *subscriber {
	s := &subscriber{name: name}
	conn, err := client.Dial(addr, client.Options{
		Timeout:   5 * time.Second,
		OnDeliver: func(d client.Delivery) { s.count.Add(1) },
	})
	if err != nil {
		log.Fatal(err)
	}
	s.conn = conn
	for _, f := range filters {
		if _, err := conn.Subscribe(f); err != nil {
			log.Fatalf("%s: subscribe %q: %v", name, f, err)
		}
	}
	return s
}

func main() {
	broker, err := server.New(server.Config{
		MetricsAddr: "127.0.0.1:0",
		Policy:      server.Block, // lossless: a slow subscriber stalls the publisher, nothing is dropped
		QueueDepth:  128,
	})
	if err != nil {
		log.Fatal(err)
	}

	subs := []*subscriber{
		newSubscriber(broker.Addr(), "alerts", []string{
			`//order[total > 1000]`,
			`//order[@priority = "high"]`,
		}),
		newSubscriber(broker.Addr(), "eu-desk", []string{
			`//order[customer/country != "US"]`,
		}),
		newSubscriber(broker.Addr(), "audit", []string{
			`//order`,
		}),
	}

	// Producer: publish packets over its own connection. The first round is
	// shown packet by packet; then the same traffic repeats so the lazy
	// machine warms up and the scraped window hit ratio climbs (the live
	// view of the paper's Fig. 8).
	producer, err := client.Dial(broker.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	packets := []string{
		`<order id="1" priority="high"><customer><country>US</country></customer><total>40</total></order>`,
		`<order id="2" priority="low"><customer><country>DE</country></customer><total>2500</total></order>`,
		`<order id="3" priority="low"><customer><country>US</country></customer><total>10</total></order>`,
		`<note>not an order</note>`,
	}
	const rounds = 25
	published := 0
	for round := 0; round < rounds; round++ {
		for _, p := range packets {
			n, err := producer.Publish([]byte(p))
			if err != nil {
				log.Fatal(err)
			}
			published++
			if round == 0 {
				fmt.Printf("published order -> broker says: %d match(es)\n", n)
			}
		}
	}
	fmt.Printf("... and %d more packets to warm the machine\n", published-len(packets))
	producer.Close()

	// Scrape the broker's Prometheus endpoint while it is still serving.
	fmt.Printf("\nscraping http://%s/metrics:\n", broker.MetricsAddr())
	for _, line := range scrapeMetrics(broker.MetricsAddr()) {
		fmt.Println(" ", line)
	}

	// Graceful drain: every queued delivery is flushed, then subscriber
	// connections are closed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := broker.Shutdown(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	for _, s := range subs {
		<-s.conn.Done()
	}

	fmt.Println("\npackets received per subscriber:")
	for _, name := range []string{"alerts", "audit", "eu-desk"} {
		for _, s := range subs {
			if s.name == name {
				fmt.Printf("  %-8s %d\n", name, s.count.Load())
			}
		}
	}
}

// scrapeMetrics fetches /metrics and returns the headline series: latency
// quantiles, stream totals, hit ratios, and broker counters.
func scrapeMetrics(addr string) []string {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "xpush_filter_latency_seconds{"),
			strings.HasPrefix(line, "xpush_filter_latency_max_seconds"),
			strings.HasPrefix(line, "xpush_documents_total"),
			strings.HasPrefix(line, "xpush_events_total"),
			strings.HasPrefix(line, "xpush_bytes_total"),
			strings.HasPrefix(line, "xpush_hit_ratio"),
			strings.HasPrefix(line, "xpushserve_publishes_total"),
			strings.HasPrefix(line, "xpushserve_deliveries_total"),
			strings.HasPrefix(line, "xpushserve_dropped_total"),
			strings.HasPrefix(line, "xpushserve_subscriptions"),
			strings.HasPrefix(line, "xpushserve_delivery_latency_seconds{"):
			lines = append(lines, line)
		}
	}
	return lines
}
