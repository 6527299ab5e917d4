package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestQuantileEmptySnapshot(t *testing.T) {
	var s Snapshot
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if s.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", s.Mean())
	}
	sum := s.Summary()
	if sum.Count != 0 || sum.P50 != 0 || sum.P99 != 0 || sum.Max != 0 {
		t.Fatalf("empty Summary = %+v", sum)
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(3e-6) // all land in the 2µs..4µs bucket
	}
	s := h.Snapshot()
	bounds := BucketBounds()
	lo, hi := bounds[1], bounds[2] // bucket 2 covers (2µs, 4µs]
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %v, want within (%v, %v]", q, got, lo, hi)
		}
	}
	// q=1 must interpolate to the top of the occupied range, clamped at Max.
	if got := s.Quantile(1); got > s.Max && s.Max > 0 && got > hi {
		t.Fatalf("Quantile(1) = %v beyond max %v and bound %v", got, s.Max, hi)
	}
}

func TestQuantileExtremes(t *testing.T) {
	var h Histogram
	h.Observe(1e-6)
	h.Observe(1e-3)
	h.Observe(1e-1)
	s := h.Snapshot()
	// q=0: rank 0, first occupied bucket wins, result is at or below its
	// upper bound and never negative.
	q0 := s.Quantile(0)
	if q0 < 0 || q0 > 1e-6 {
		t.Fatalf("Quantile(0) = %v, want within [0, 1e-6]", q0)
	}
	// q=1 must not exceed the recorded max.
	q1 := s.Quantile(1)
	if q1 > s.Max {
		t.Fatalf("Quantile(1) = %v > max %v", q1, s.Max)
	}
	if q1 < 1e-3 {
		t.Fatalf("Quantile(1) = %v, want >= second-highest observation", q1)
	}
	// Monotonic in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotonic: q=%v gives %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(100) // 100s: beyond the ~33.5s top finite bound
	s := h.Snapshot()
	if top := bucketIndex(1000 << (numBounds - 1)); len(s.Buckets) <= top+1 || s.Buckets[len(s.Buckets)-1] != 1 {
		t.Fatalf("overflow observation not above the top finite bound: %d buckets", len(s.Buckets))
	}
	// A value above the top finite bound interpolates within its bucket,
	// clamped at Max.
	bounds := BucketBounds()
	top := bounds[len(bounds)-1]
	if got := s.Quantile(0.5); got < top || got > s.Max {
		t.Fatalf("overflow Quantile(0.5) = %v, want within [%v, %v]", got, top, s.Max)
	}
	if got := s.Quantile(1); got != s.Max {
		t.Fatalf("overflow Quantile(1) = %v, want max %v", got, s.Max)
	}
}

// TestGaugeVecFunc: a labeled family encodes one line per member, typed
// gauge through GaugeVecFunc and counter through CounterVecFunc.
func TestGaugeVecFunc(t *testing.T) {
	r := NewRegistry()
	vec := func() []Labeled {
		return []Labeled{
			{Labels: `name="a"`, Value: 3},
			{Labels: `name="b"`, Value: 0},
		}
	}
	r.GaugeVecFunc("xpush_test_lag", "per-name lag", vec)
	r.CounterVecFunc("xpush_test_read_total", "per-name reads", vec)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE xpush_test_lag gauge",
		"xpush_test_lag{name=\"a\"} 3",
		"xpush_test_lag{name=\"b\"} 0",
		"# TYPE xpush_test_read_total counter",
		"xpush_test_read_total{name=\"a\"} 3",
		"xpush_test_read_total{name=\"b\"} 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSummaryVecFunc(t *testing.T) {
	r := NewRegistry()
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(2e-3)
	}
	r.SummaryVecFunc("xpush_test_node_ack", "per-node ack latency", []float64{0.5, 0.99}, func() []LabeledSnapshot {
		return []LabeledSnapshot{
			{Labels: `node="a:1"`, Snap: h.Snapshot()},
			{Labels: `node="b:2"`, Snap: Snapshot{}},
		}
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE xpush_test_node_ack summary",
		`xpush_test_node_ack{node="a:1",quantile="0.5"}`,
		`xpush_test_node_ack{node="a:1",quantile="0.99"}`,
		`xpush_test_node_ack_count{node="a:1"} 100`,
		`xpush_test_node_ack_count{node="b:2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// The populated member's median lands in the observed bucket range.
	if !strings.Contains(out, `xpush_test_node_ack_sum{node="a:1"} 0.2`) {
		t.Fatalf("sum not encoded per label set:\n%s", out)
	}
}

func TestGaugeVecFuncEmpty(t *testing.T) {
	r := NewRegistry()
	r.GaugeVecFunc("xpush_empty_vec", "empty family", func() []Labeled { return nil })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE xpush_empty_vec gauge") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if strings.Contains(out, "xpush_empty_vec{") {
		t.Fatalf("empty family emitted samples:\n%s", out)
	}
}

// Registration concurrent with scraping must be race-free (run under -race).
func TestRegistryConcurrentRegistrationAndScrape(t *testing.T) {
	r := NewRegistry()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 100; i++ {
				c := r.Counter(fmt.Sprintf("hammer_c_%d_%d", w, i), "")
				c.Inc()
				r.GaugeFunc(fmt.Sprintf("hammer_g_%d_%d", w, i), "", func() float64 { return 1 })
				r.GaugeVecFunc(fmt.Sprintf("hammer_v_%d_%d", w, i), "", func() []Labeled {
					return []Labeled{{Labels: `x="y"`, Value: 1}}
				})
			}
		}(w)
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	scraper.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hammer_c_3_99 1") {
		t.Fatal("final scrape missing registered counter")
	}
}

func TestRuntimeMetricsExported(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	rw := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	out := rw.Body.String()
	for _, want := range []string{
		"go_goroutines",
		"go_heap_objects_bytes",
		"go_gc_pauses_seconds_count",
		"go_sched_latencies_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, out)
		}
	}
	// Goroutine count must be a live positive number.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "go_goroutines ") {
			var v float64
			if _, err := fmt.Sscanf(line, "go_goroutines %g", &v); err != nil || v < 1 {
				t.Fatalf("go_goroutines line %q invalid", line)
			}
			return
		}
	}
	t.Fatal("no go_goroutines sample line")
}

func TestRuntimeHistogramConversion(t *testing.T) {
	s := runtimeHistSnapshot("/sched/latencies:seconds")
	if len(s.Buckets) > numBuckets {
		t.Fatalf("converted snapshot has %d buckets, want at most %d", len(s.Buckets), numBuckets)
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
	// Unknown names degrade to an empty snapshot, never panic.
	if got := runtimeHistSnapshot("/nonexistent:units"); got.Count != 0 {
		t.Fatalf("unknown metric snapshot = %+v", got)
	}
}
