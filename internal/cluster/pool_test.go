package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/server"
)

// poolEvents records OnUp/OnDown transitions for assertions.
type poolEvents struct {
	mu   sync.Mutex
	ups  int
	dns  int
	c    *client.Client // the connection the last OnUp was given
	cond *sync.Cond
}

func (e *poolEvents) conn() *client.Client {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.c
}

func newPoolEvents() *poolEvents {
	e := &poolEvents{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

func (e *poolEvents) up(_ string, c *client.Client) {
	e.mu.Lock()
	e.ups++
	e.c = c
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *poolEvents) down(string, error) {
	e.mu.Lock()
	e.dns++
	e.cond.Broadcast()
	e.mu.Unlock()
}

// waitFor blocks until pred holds or the deadline passes.
func (e *poolEvents) waitFor(t *testing.T, what string, pred func(ups, dns int) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	timer := time.AfterFunc(10*time.Second, func() { e.cond.Broadcast() })
	defer timer.Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	for !pred(e.ups, e.dns) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (ups=%d downs=%d)", what, e.ups, e.dns)
		}
		e.cond.Wait()
	}
}

// TestPoolHealthTransitions walks one node through the full lifecycle:
// up → killed (down) → rebooted on the same address (up again).
func TestPoolHealthTransitions(t *testing.T) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	ev := newPoolEvents()
	p := NewPool([]string{addr}, PoolOptions{
		Client:       client.Options{Timeout: 2 * time.Second},
		Backoff:      client.Backoff{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		PingInterval: 50 * time.Millisecond,
		OnUp:         ev.up,
		OnDown:       ev.down,
	})
	defer p.Close()

	// The pool marks a node up after OnUp returns (and down before OnDown
	// fires), so the up state is waited for, not read once.
	ev.waitFor(t, "initial connect", func(ups, _ int) bool { return ups >= 1 })
	waitUntil(t, "node marked up after OnUp", func() bool { return p.Up(addr) })
	if err := ev.conn().Ping(); err != nil {
		t.Fatalf("pooled connection unusable: %v", err)
	}

	// Kill the node: the ping loop (or the conn's Done) must mark it down.
	srv.Close()
	ev.waitFor(t, "node down", func(_, dns int) bool { return dns >= 1 })
	// Down state is set before OnDown fires, so this is race-free.
	if p.Up(addr) {
		t.Fatal("node still marked up after OnDown")
	}

	// Reboot on the same address: the manage loop reconnects on its own.
	srv2, err := server.New(server.Config{Addr: addr})
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer srv2.Close()
	ev.waitFor(t, "reconnect", func(ups, _ int) bool { return ups >= 2 })

	waitUntil(t, "snapshot up with >=2 connects", func() bool {
		snap := p.Snapshot()
		return len(snap) == 1 && snap[0].Node == addr && snap[0].Up && snap[0].Reconnects >= 2
	})
}

// TestPoolProbeAcceleratesDetection: with a long ping interval, a Probe
// right after the node dies must surface the failure well before the next
// scheduled ping.
func TestPoolProbeAcceleratesDetection(t *testing.T) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	ev := newPoolEvents()
	p := NewPool([]string{addr}, PoolOptions{
		Client:       client.Options{Timeout: 2 * time.Second},
		Backoff:      client.Backoff{Min: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		PingInterval: time.Hour, // only Probe (or conn death) can trigger checks
		OnUp:         ev.up,
		OnDown:       ev.down,
	})
	defer p.Close()
	ev.waitFor(t, "initial connect", func(ups, _ int) bool { return ups >= 1 })

	srv.Close()
	p.Probe(addr)
	start := time.Now()
	ev.waitFor(t, "probed failure detection", func(_, dns int) bool { return dns >= 1 })
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("probe took %v to surface a dead node", elapsed)
	}
}

// TestPoolCloseInterruptsRetry: Close must return promptly even while a
// node is down and the manage loop is deep in backoff.
func TestPoolCloseInterruptsRetry(t *testing.T) {
	// Address with nothing listening: manage loops in DialRetry.
	srv, _ := server.New(server.Config{Addr: "127.0.0.1:0"})
	addr := srv.Addr()
	srv.Close()

	p := NewPool([]string{addr}, PoolOptions{
		Backoff: client.Backoff{Min: 10 * time.Second, Max: 10 * time.Second},
	})
	time.Sleep(100 * time.Millisecond) // let the first dial fail, backoff start
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Pool.Close blocked behind a backoff sleep")
	}
}
