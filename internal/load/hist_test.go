package load

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/client"
)

// newTestState is a runState with the given phases and no connections, for
// driving the recording and reporting paths without a broker.
func newTestState(phases ...string) *runState {
	spec := Spec{Name: "t"}
	for _, name := range phases {
		spec.Phases = append(spec.Phases, Phase{Name: name, Duration: time.Second})
	}
	st := &runState{
		r:     &Runner{Plan: &Plan{Spec: spec}},
		epoch: time.Now(),
	}
	for range phases {
		st.measures = append(st.measures, &measure{})
	}
	return st
}

// observeDelivery records one end-to-end latency the way deliverHandler
// does: into the owning phase's histogram and the run-wide one.
func observeDelivery(st *runState, phase int, lat time.Duration) {
	st.measures[phase].e2e.Observe(lat.Seconds())
	st.allE2E.Observe(lat.Seconds())
}

// TestHistQuantiles records a known latency distribution into a phase and
// checks the quantiles the run reports, down to the microsecond fields of
// the -json bench report.
func TestHistQuantiles(t *testing.T) {
	st := newTestState("steady")
	// 1000 observations: 1ms, 2ms, ..., 1000ms.
	for i := 1; i <= 1000; i++ {
		observeDelivery(st, 0, time.Duration(i)*time.Millisecond)
	}
	res := st.collect()
	sum := res.Phases[0].Delivery
	if sum.Count != 1000 || sum.P999 == 0 || sum.P50 >= sum.P99 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Max != 1.0 {
		t.Fatalf("max = %v, want 1s", sum.Max)
	}
	if sum.Mean < 0.498 || sum.Mean > 0.503 {
		t.Fatalf("mean = %v", sum.Mean)
	}
	bp := res.BenchReport("title", "cmd").Benchmarks[0]
	for _, c := range []struct {
		name      string
		got, want float64 // microseconds
	}{
		{"p50", bp.DeliveryP50Us, 500e3},
		{"p90", bp.DeliveryP90Us, 900e3},
		{"p99", bp.DeliveryP99Us, 990e3},
		{"p99.9", bp.DeliveryP999Us, 999e3},
	} {
		if math.Abs(c.got-c.want) > 0.02*c.want {
			t.Fatalf("%s = %vµs, want within 2%% of %vµs", c.name, c.got, c.want)
		}
	}
	if bp.DeliveryMaxUs != 1e6 {
		t.Fatalf("max = %vµs, want 1e6", bp.DeliveryMaxUs)
	}
	if bp.Name != "xpushload/t/steady" {
		t.Fatalf("bench name = %q", bp.Name)
	}
}

// TestHistDeltaSince pins the per-interval view the progress reporter takes
// of the run-wide histogram: the delta holds only the observations recorded
// between the two snapshots, even across a phase boundary, while each
// phase's own summary keeps only its phase.
func TestHistDeltaSince(t *testing.T) {
	st := newTestState("warmup", "steady")
	observeDelivery(st, 0, 10*time.Microsecond)
	observeDelivery(st, 0, 20*time.Microsecond)
	prev := st.allE2E.Snapshot()
	observeDelivery(st, 1, 5*time.Millisecond)
	observeDelivery(st, 1, 6*time.Millisecond)
	observeDelivery(st, 1, 7*time.Millisecond)
	d := st.allE2E.Snapshot().DeltaSince(prev)
	if d.Count != 3 {
		t.Fatalf("delta count = %d, want 3", d.Count)
	}
	if p50 := Micros(d.Quantile(0.5)); p50 < 5*time.Millisecond || p50 > 7*time.Millisecond {
		t.Fatalf("delta p50 = %v, want ~6ms (old 10-20us observations must not leak in)", p50)
	}
	// Max advanced during the window: exact.
	if Micros(d.Max) != 7*time.Millisecond {
		t.Fatalf("delta max = %v, want 7ms", Micros(d.Max))
	}
	res := st.collect()
	if w, s := res.Phases[0].Delivery, res.Phases[1].Delivery; w.Count != 2 || Micros(w.Max) != 20*time.Microsecond ||
		s.Count != 3 || s.Max != d.Max {
		t.Fatalf("phase summaries: warmup %+v, steady %+v", w, s)
	}

	// A window with smaller observations: max bounded by its top bucket.
	prev = st.allE2E.Snapshot()
	observeDelivery(st, 1, 1*time.Millisecond)
	d = st.allE2E.Snapshot().DeltaSince(prev)
	if d.Count != 1 || Micros(d.Max) < 1*time.Millisecond || Micros(d.Max) > 2*time.Millisecond {
		t.Fatalf("delta after max plateau: count=%d max=%v", d.Count, Micros(d.Max))
	}
	// Empty window.
	prev = st.allE2E.Snapshot()
	d = st.allE2E.Snapshot().DeltaSince(prev)
	if d.Count != 0 || d.Max != 0 || Micros(d.Quantile(0.99)) != 0 {
		t.Fatalf("empty delta = %+v", d.Summary())
	}
}

// TestHistConcurrent drives the publish-ack and delivery callbacks from
// many goroutines while the result is collected concurrently, then checks
// that every observation landed in its phase's histogram and in the
// run-wide one; run under -race.
func TestHistConcurrent(t *testing.T) {
	st := newTestState("warmup", "steady")
	const workers, per = 8, 2000
	slot := &connSlot{}
	ackErr := errors.New("rejected")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			deliver := st.deliverHandler(slot)
			var doc []byte
			for i := 0; i < per; i++ {
				seq := uint64(w*per + i)
				var err error
				if seq%10 == 0 {
					err = ackErr
				}
				st.pubResult(st.measures[seq%2], 0, client.PublishResult{Seq: seq, Err: err})
				doc = appendDocTag(doc[:0], int(seq%2), 0, []byte("<a/>"))
				deliver(client.Delivery{Filters: []uint64{1, 2}, Doc: append([]byte(nil), doc...)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = st.collect()
		}
	}()
	wg.Wait()
	<-done

	const perPhase = workers * per / 2
	const ackErrs = workers * per / 10 // every tenth seq fails; all are even, so phase 0
	res := st.collect()
	for i, ph := range res.Phases {
		wantErrs := uint64(0)
		if i == 0 {
			wantErrs = ackErrs
		}
		if ph.AckErrors != wantErrs || ph.PubAck.Count != perPhase-wantErrs {
			t.Fatalf("phase %d: ack errors %d, acks %d; want %d, %d", i, ph.AckErrors, ph.PubAck.Count, wantErrs, perPhase-wantErrs)
		}
		if ph.Delivery.Count != perPhase || ph.Deliveries != 2*perPhase {
			t.Fatalf("phase %d: delivery count %d, deliveries %d; want %d, %d", i, ph.Delivery.Count, ph.Deliveries, perPhase, 2*perPhase)
		}
	}
	if n := st.allPubAck.Snapshot().Count; n != workers*per-ackErrs {
		t.Fatalf("run-wide acks = %d, want %d", n, workers*per-ackErrs)
	}
	if n := st.allE2E.Snapshot().Count; n != workers*per {
		t.Fatalf("run-wide deliveries = %d, want %d", n, workers*per)
	}
}
