package obs

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
	var g Gauge
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.Set(-2)
	if g.Value() != -2 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)          // bucket 0
	h.Observe(1e-9)       // bucket 0: buckets are (lo, hi], 0 and 1ns share it
	h.Observe(3e-6)       // 3000ns: (2976, 3008]
	h.Observe(1)          // 1e9ns
	h.Observe(1e9)        // beyond 2^42ns: the top bucket
	h.Observe(-1)         // clamped to 0
	h.Observe(math.NaN()) // clamped to 0
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 4 {
		t.Errorf("bucket 0 = %d", s.Buckets[0])
	}
	if i := bucketIndex(3000); s.Buckets[i] != 1 || bucketUpper(i) != 3008 || bucketUpper(i-1) != 2976 {
		t.Errorf("3µs bucket %d = %d, edges (%d, %d]", i, s.Buckets[i], bucketUpper(i-1), bucketUpper(i))
	}
	if len(s.Buckets) != numBuckets || s.Buckets[numBuckets-1] != 1 {
		t.Errorf("top bucket: len %d", len(s.Buckets))
	}
	if s.Max != 1e9 {
		t.Errorf("max = %v", s.Max)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Errorf("bucket sum %d != count %d", total, s.Count)
	}
}

// TestHistogramQuantiles records n observations spread evenly over
// [1ms, n ms] and holds every quantile, p99.9 included, to 2%.
func TestHistogramQuantiles(t *testing.T) {
	for _, n := range []int{100, 1000} {
		var h Histogram
		for i := 1; i <= n; i++ {
			h.Observe(float64(i) / 1000)
		}
		sum := h.Snapshot().Summary()
		top := float64(n) / 1000
		if sum.Count != uint64(n) {
			t.Fatalf("n=%d: count = %d", n, sum.Count)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"p50", sum.P50, 0.5 * top},
			{"p90", sum.P90, 0.9 * top},
			{"p99", sum.P99, 0.99 * top},
			{"p99.9", sum.P999, 0.999 * top},
		} {
			if math.Abs(c.got-c.want) > 0.02*c.want {
				t.Errorf("n=%d: %s = %v, want within 2%% of %v", n, c.name, c.got, c.want)
			}
		}
		if sum.Max != top {
			t.Errorf("n=%d: max = %v", n, sum.Max)
		}
		if want := float64(n+1) / 2000; math.Abs(sum.Mean-want) > 1e-9 {
			t.Errorf("n=%d: mean = %v, want %v", n, sum.Mean, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	var want atomic.Uint64 // nanoseconds
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				ns := r.Int63n(int64(time.Second))
				want.Add(uint64(ns))
				h.Observe(time.Duration(ns).Seconds())
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { // concurrent snapshot reads must be race-free
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Snapshot().Summary()
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count || s.Sum != float64(want.Load())/1e9 {
		t.Fatalf("buckets %d, sum %v; want %d, %v", total, s.Sum, s.Count, float64(want.Load())/1e9)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("docs_total", "documents processed")
	c.Add(7)
	g := r.Gauge("hit_ratio", "table hit ratio")
	g.Set(0.9375)
	r.GaugeFunc("states", "machine states", func() float64 { return 42 })
	r.CounterFunc("bytes_total", "bytes in", func() int64 { return 1 << 20 })
	var h Histogram
	h.Observe(0.002)
	h.Observe(0.004)
	r.Histogram("latency_seconds", "per-document latency", &h)
	r.SummaryFunc("latency_quantiles_seconds", "latency quantiles", nil, h.Snapshot)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE docs_total counter",
		"docs_total 7",
		"# TYPE hit_ratio gauge",
		"hit_ratio 0.9375",
		"states 42",
		"bytes_total 1048576",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="+Inf"} 2`,
		"latency_seconds_count 2",
		"# TYPE latency_quantiles_seconds summary",
		`latency_quantiles_seconds{quantile="0.5"}`,
		`latency_quantiles_seconds{quantile="0.99"}`,
		"latency_quantiles_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at count.
	if !strings.Contains(out, "latency_seconds_sum 0.006") {
		t.Errorf("bad sum:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name must panic")
		}
	}()
	r.Counter("x", "")
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_docs", "").Add(3)
	srv := httptest.NewServer(r.NewMux())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "up_docs 3") {
		t.Errorf("metrics body: %s", buf[:n])
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type: %s", ct)
	}

	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	n, _ = hresp.Body.Read(buf)
	if strings.TrimSpace(string(buf[:n])) != "ok" {
		t.Errorf("healthz body: %q", buf[:n])
	}
}

func TestHTTPReadiness(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_docs", "").Add(3)
	ready := true
	srv := httptest.NewServer(r.NewMuxWithStatus(func() (bool, string) {
		if !ready {
			return false, "draining"
		}
		return true, "ok"
	}))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("ready healthz: %d %q", code, body)
	}
	ready = false
	if code, body := get("/healthz"); code != 503 || strings.TrimSpace(body) != "draining" {
		t.Errorf("draining healthz: %d %q", code, body)
	}
	// /metrics stays scrapeable while draining (the final flush).
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_docs 3") {
		t.Errorf("draining metrics: %d %q", code, body)
	}
}
