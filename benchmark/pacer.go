package main

import (
	"time"
)

// pacer is the open-loop scheduler: operation i is due at start + i/rate
// whatever the system under test is doing, and every latency is timed from
// that intended instant, so a stall is charged to every operation scheduled
// during it (no coordinated omission). It also accounts for its own
// lateness: lag is how long after its due time an operation was released,
// backlog how many due operations had not been released yet.
type pacer struct {
	period time.Duration
	// now and sleep are the clock; tests substitute a fake.
	now   func() time.Duration
	sleep func(time.Duration)

	start      time.Duration
	lags       []float64 // ms, one per released operation
	backlogMax int
}

// spinBelow is the remaining wait under which the pacer stops sleeping and
// busy-waits instead. An idle Go scheduler parks in epoll_wait, whose
// timeout has millisecond granularity, so a sub-millisecond time.Sleep
// returns up to 1 ms late — more than the latencies being measured. The
// loop does not yield either: runtime.Gosched re-queues the publisher
// globally and the broker's goroutines then wait behind it (measured:
// p50 2.6 ms against 0.13 ms). The paced phase therefore gives one of the
// two Ps to the generator; CPU cost is read in the saturate phase only.
const spinBelow = 1500 * time.Microsecond

func newPacer(rate float64, clock func() time.Duration) *pacer {
	p := &pacer{
		period: time.Duration(float64(time.Second) / rate),
		now:    clock,
		sleep:  time.Sleep,
	}
	p.start = p.now()
	return p
}

// intended is operation i's due time on the pacer's clock.
func (p *pacer) intended(i int) time.Duration {
	return p.start + time.Duration(i)*p.period
}

// wait blocks until operation i is due, records its lag and the backlog
// behind it, and returns the intended time to measure latency from.
func (p *pacer) wait(i int) time.Duration {
	due := p.intended(i)
	now := p.now()
	for now < due {
		if d := due - now; d > spinBelow {
			p.sleep(d - spinBelow)
		}
		now = p.now()
	}
	p.lags = append(p.lags, float64(now-due)/float64(time.Millisecond))
	if b := int((now - due) / p.period); b > p.backlogMax {
		p.backlogMax = b
	}
	return due
}
