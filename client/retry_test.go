package client

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/server"
)

// flakyListener accepts raw TCP and, for the first `drop` connections,
// closes them immediately (a booting broker, or one shedding load); after
// that it answers PING frames like a healthy broker.
type flakyListener struct {
	ln      net.Listener
	drop    int32
	accepts atomic.Int32
}

func startFlakyListener(t *testing.T, drop int32) *flakyListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{ln: ln, drop: drop}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			n := fl.accepts.Add(1)
			if n <= fl.drop {
				nc.Close()
				continue
			}
			go func() {
				defer nc.Close()
				for {
					f, err := server.ReadFrame(nc, 1<<20)
					if err != nil {
						return
					}
					if f.Type == server.FramePing {
						server.WriteFrame(nc, server.FramePong, nil)
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return fl
}

// TestDialRetryFlakyListener is the satellite's core scenario: the first
// connections are accepted and instantly dropped; DialRetry with a Ping
// probe must keep retrying and return a healthy client.
func TestDialRetryFlakyListener(t *testing.T) {
	fl := startFlakyListener(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialRetry(ctx, fl.ln.Addr().String(), Options{Timeout: 2 * time.Second}, Backoff{
		Min:   5 * time.Millisecond,
		Max:   50 * time.Millisecond,
		Probe: func(c *Client) error { return c.Ping() },
	})
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	defer c.Close()
	if got := fl.accepts.Load(); got < 3 {
		t.Fatalf("expected at least 3 accepts (2 dropped + 1 healthy), got %d", got)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("returned client is not usable: %v", err)
	}
}

// TestDialRetryRefusedThenUp covers the connection-refused regime: no
// listener at all, then one appears mid-retry.
func TestDialRetryRefusedThenUp(t *testing.T) {
	// Reserve an address, then free it so the first dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	up := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			close(up)
			return
		}
		go func() {
			for {
				nc, err := ln2.Accept()
				if err != nil {
					return
				}
				go func() {
					defer nc.Close()
					for {
						f, err := server.ReadFrame(nc, 1<<20)
						if err != nil {
							return
						}
						if f.Type == server.FramePing {
							server.WriteFrame(nc, server.FramePong, nil)
						}
					}
				}()
			}
		}()
		close(up)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialRetry(ctx, addr, Options{Timeout: 2 * time.Second}, Backoff{
		Min:   10 * time.Millisecond,
		Max:   100 * time.Millisecond,
		Probe: func(c *Client) error { return c.Ping() },
	})
	<-up
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	c.Close()
}

// TestDialRetryContextBounded: with nothing listening, DialRetry must stop
// when the context expires and report the last dial error.
func TestDialRetryContextBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialRetry(ctx, addr, Options{}, Backoff{Min: 20 * time.Millisecond, Max: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("DialRetry succeeded against a dead address")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error should wrap context.DeadlineExceeded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("DialRetry ran %v past a 200ms context", elapsed)
	}
}

// TestDialRetryContextCancelInterruptsBackoff: cancelling the context while
// DialRetry is asleep in a long backoff must interrupt the sleep
// promptly — the gate's pool shutdown cannot wait out a multi-second
// reconnect delay.
func TestDialRetryContextCancelInterruptsBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Min=30s guarantees the goroutine is parked in the backoff sleep
		// after the first refused dial, not dialing, when cancel fires.
		_, err := DialRetry(ctx, addr, Options{},
			Backoff{Min: 30 * time.Second, Max: 30 * time.Second})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the first dial fail and the sleep start
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error should wrap context.Canceled: %v", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("cancellation took %v to interrupt a 30s backoff sleep", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DialRetry did not return within 5s of cancellation")
	}
}

// TestClientRemoteAddr: the accessor reports the broker end of the
// connection (the gate keys per-node state by it).
func TestClientRemoteAddr(t *testing.T) {
	fl := startFlakyListener(t, 0)
	c, err := Dial(fl.ln.Addr().String(), Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, want := c.RemoteAddr().String(), fl.ln.Addr().String(); got != want {
		t.Fatalf("RemoteAddr = %s, want %s", got, want)
	}
}

// TestClientLatchesProtoErr: a PROTO_ERR frame from the server latches its
// reason as the client's terminal error, so version skew surfaces as a
// diagnosable message instead of a bare EOF.
func TestClientLatchesProtoErr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := server.ReadFrame(nc, 1<<20); err != nil {
			return
		}
		server.WriteFrame(nc, server.FrameProtoErr, []byte("server: unknown frame type 0x03"))
	}()
	c, err := Dial(ln.Addr().String(), Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Ping() // draws the PROTO_ERR and the close
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("connection not closed after PROTO_ERR")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "unknown frame type 0x03") {
		t.Fatalf("Err() = %v, want the latched protocol-error reason", err)
	}
}

// TestDialRetryMaxAttempts: the attempt bound is honored without a context
// deadline.
func TestDialRetryMaxAttempts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	_, err = DialRetry(context.Background(), addr, Options{},
		Backoff{Min: time.Millisecond, Max: 2 * time.Millisecond, MaxAttempts: 3})
	if err == nil {
		t.Fatal("DialRetry succeeded against a dead address")
	}
}

// TestBackoffSchedule pins the delay curve: exponential growth from Min,
// capped at Max, jitter within ±Jitter.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.delay(i); got != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Jitter stays inside the band and actually varies.
	seq := []float64{0, 1, 0.5}
	k := 0
	bj := Backoff{Min: 100 * time.Millisecond, Max: time.Second, Jitter: 0.2,
		rng: func() float64 { v := seq[k%len(seq)]; k++; return v }}
	lo, hi := 80*time.Millisecond, 120*time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 3; i++ {
		d := bj.delay(0)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced no variation")
	}
}
