package client

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Backoff shapes DialRetry's retry schedule: jittered exponential backoff
// between attempts, bounded by the caller's context. The zero value uses
// the defaults noted on each field.
type Backoff struct {
	// Min is the first retry delay (default 50ms).
	Min time.Duration
	// Max caps the delay between attempts (default 2s).
	Max time.Duration
	// Factor multiplies the delay after each failure (default 2).
	Factor float64
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2) so a
	// reconnect storm of many clients does not re-dial in lockstep
	// (thundering herd) against a broker that just came back.
	Jitter float64
	// MaxAttempts bounds the number of dials (0 = until ctx is done).
	MaxAttempts int
	// Probe, when non-nil, validates each established connection before
	// DialRetry returns it; a failing probe closes the connection and
	// counts as a failed attempt. Use (*Client).Ping to catch listeners
	// that accept and immediately drop connections (a booting or
	// overloaded broker).
	Probe func(*Client) error
	// rng overrides the jitter source for tests.
	rng func() float64
}

func (b Backoff) min() time.Duration {
	if b.Min > 0 {
		return b.Min
	}
	return 50 * time.Millisecond
}

func (b Backoff) max() time.Duration {
	if b.Max > 0 {
		return b.Max
	}
	return 2 * time.Second
}

func (b Backoff) factor() float64 {
	if b.Factor > 1 {
		return b.Factor
	}
	return 2
}

func (b Backoff) jitter() float64 {
	switch {
	case b.Jitter < 0:
		return 0
	case b.Jitter == 0:
		return 0.2
	case b.Jitter > 1:
		return 1
	}
	return b.Jitter
}

// delay returns the jittered backoff delay for attempt i (0-based).
func (b Backoff) delay(i int) time.Duration {
	d := float64(b.min())
	for ; i > 0 && d < float64(b.max()); i-- {
		d *= b.factor()
	}
	if m := float64(b.max()); d > m {
		d = m
	}
	if j := b.jitter(); j > 0 {
		rng := b.rng
		if rng == nil {
			rng = rand.Float64
		}
		d *= 1 - j + 2*j*rng() // uniform in [d*(1-j), d*(1+j)]
	}
	return time.Duration(d)
}

// DialRetry dials a broker with jittered exponential backoff until it
// succeeds, the context is done, or Backoff.MaxAttempts is exhausted. It is
// the standard building block for reconnect-storm scenarios and supervised
// subscribers: call it instead of hand-rolling a retry loop around Dial.
//
// The context bounds the whole operation, including each in-flight dial
// (Options.DialTimeout additionally bounds a single attempt, and is
// defaulted to 2s here when unset so one hung SYN cannot eat the budget).
// On give-up the last dial (or probe) error is returned, wrapped with the
// attempt count. A cancellation mid-backoff interrupts the sleep rather than
// waiting it out, so a supervisor tearing down (the xpushgate connection
// pool on shutdown, say) never blocks behind a multi-second reconnect delay.
func DialRetry(ctx context.Context, addr string, opt Options, b Backoff) (*Client, error) {
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 2 * time.Second
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if b.MaxAttempts > 0 && attempt >= b.MaxAttempts {
			return nil, fmt.Errorf("client: dial %s: giving up after %d attempts: %w", addr, attempt, lastErr)
		}
		if attempt > 0 {
			t := time.NewTimer(b.delay(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, dialRetryCtxErr(addr, attempt, ctx.Err(), lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, dialRetryCtxErr(addr, attempt, err, lastErr)
		}
		c, err := Dial(addr, opt)
		if err != nil {
			lastErr = err
			continue
		}
		if b.Probe != nil {
			if err := b.Probe(c); err != nil {
				c.Close()
				lastErr = fmt.Errorf("probe: %w", err)
				continue
			}
		}
		return c, nil
	}
}

func dialRetryCtxErr(addr string, attempts int, ctxErr, lastErr error) error {
	if lastErr == nil {
		return fmt.Errorf("client: dial %s: %w", addr, ctxErr)
	}
	return fmt.Errorf("client: dial %s: %w after %d attempts (last error: %v)", addr, ctxErr, attempts, lastErr)
}
