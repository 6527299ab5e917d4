package obs

import (
	"strings"
	"testing"
)

// TestSnapshotDeltaSince pins the per-interval semantics: only the
// observations between the two snapshots appear in the delta.
func TestSnapshotDeltaSince(t *testing.T) {
	var h Histogram
	h.Observe(10e-6)
	h.Observe(20e-6)
	prev := h.Snapshot()
	h.Observe(5e-3)
	h.Observe(6e-3)
	h.Observe(7e-3)
	d := h.Snapshot().DeltaSince(prev)
	if d.Count != 3 {
		t.Fatalf("delta count = %d, want 3", d.Count)
	}
	if d.Sum < 17e-3 || d.Sum > 19e-3 {
		t.Fatalf("delta sum = %g, want ~18e-3", d.Sum)
	}
	// Old microsecond observations must not leak into the delta quantiles.
	if p50 := d.Quantile(0.5); p50 < 5e-3 || p50 > 7e-3 {
		t.Fatalf("delta p50 = %g, want ~6ms (cumulative history leaked in?)", p50)
	}
	// Max advanced during the interval: exact.
	if d.Max != 7e-3 {
		t.Fatalf("delta max = %g, want 7e-3", d.Max)
	}

	// Interval with only smaller observations: max falls back to the
	// highest non-empty delta bucket's upper edge (1/64 wide), not the stale
	// cumulative max.
	prev = h.Snapshot()
	h.Observe(1e-3)
	d = h.Snapshot().DeltaSince(prev)
	if d.Count != 1 {
		t.Fatalf("count = %d", d.Count)
	}
	if d.Max < 1e-3 || d.Max > 1e-3*(1+1.0/64) {
		t.Fatalf("plateau delta max = %g, want within 1ms's bucket", d.Max)
	}
	if p := d.Quantile(0.99); p < 1e-3*(1-1.0/64) || p > d.Max {
		t.Fatalf("plateau delta p99 = %g, want within 1ms's bucket", p)
	}

	// Empty interval.
	prev = h.Snapshot()
	d = h.Snapshot().DeltaSince(prev)
	if d.Count != 0 || d.Sum != 0 || d.Max != 0 {
		t.Fatalf("empty delta = %+v", d)
	}

	// Delta against a zero-value snapshot is the cumulative view.
	d = h.Snapshot().DeltaSince(Snapshot{})
	if d.Count != h.Snapshot().Count {
		t.Fatalf("delta since zero = %d, want full count %d", d.Count, h.Snapshot().Count)
	}
}

// TestCumulativeEncodingUnchanged pins that the Prometheus encoding of a
// histogram is the cumulative view, however many interval deltas a reporter
// takes from it.
func TestCumulativeEncodingUnchanged(t *testing.T) {
	r := NewRegistry()
	var h Histogram
	r.Histogram("x_latency_seconds", "test", &h)
	h.Observe(1e-3)
	prev := h.Snapshot()
	h.Observe(2e-3)
	if d := h.Snapshot().DeltaSince(prev); d.Count != 1 {
		t.Fatalf("delta count = %d, want 1", d.Count)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "x_latency_seconds_count 2") {
		t.Fatalf("scrape lost cumulative behavior:\n%s", sb.String())
	}
}
