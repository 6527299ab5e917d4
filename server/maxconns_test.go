package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/client"
	"repro/server"
)

// TestMaxConnsRejectionExported pins the -max-conns observability surface:
// a rejected connection increments Server.ConnectionsRejected,
// xpushserve_connections_rejected_total carries the count on /metrics, and
// /debug/machine reports it — so a reconnect-storm scenario that trips the
// limit is visible server-side.
func TestMaxConnsRejectionExported(t *testing.T) {
	srv := startServer(t, server.Config{
		MaxConns:    2,
		MetricsAddr: "127.0.0.1:0",
		DebugAddr:   "127.0.0.1:0",
	})

	c1, err := client.Dial(srv.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(srv.Addr(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}

	// The third connection is over the limit: the server answers with an
	// ERR frame and closes, so the first round trip fails.
	c3, err := client.Dial(srv.Addr(), client.Options{Timeout: 5 * time.Second})
	if err == nil {
		if err := c3.Ping(); err == nil {
			t.Fatal("third connection survived past MaxConns=2")
		}
		c3.Close()
	}

	if got := srv.ConnectionsRejected(); got != 1 {
		t.Fatalf("ConnectionsRejected = %d, want 1", got)
	}

	text := scrape(t, srv.MetricsAddr())
	if v := metricValue(t, text, "xpushserve_connections_rejected_total"); v != 1 {
		t.Fatalf("xpushserve_connections_rejected_total = %g, want 1", v)
	}

	resp, err := http.Get("http://" + srv.DebugAddr() + "/debug/machine")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		ConnsRejected int64 `json:"conns_rejected"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("unmarshal /debug/machine: %v\n%s", err, body)
	}
	if snap.ConnsRejected != 1 {
		t.Fatalf("/debug/machine conns_rejected = %d, want 1", snap.ConnsRejected)
	}

	// Freeing a slot lets DialRetry recover — the storm-facing path.
	c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c4, err := client.DialRetry(ctx, srv.Addr(), client.Options{Timeout: 5 * time.Second}, client.Backoff{
		Min:   10 * time.Millisecond,
		Probe: func(c *client.Client) error { return c.Ping() },
	})
	if err != nil {
		t.Fatalf("DialRetry after slot freed: %v", err)
	}
	c4.Close()
}
