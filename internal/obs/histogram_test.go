package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestBucketIndexRoundTrip checks that every value lands in a bucket whose
// (lo, hi] edges contain it, at most 1/64 of the value wide, and that the
// index stays in range beyond the top of the layout.
func TestBucketIndexRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 63, 64, 65, 127, 128, 129, 1000, 1001, 1e6, 1e9, 1e12, maxNanos - 1, maxNanos} {
		i := bucketIndex(v)
		hi := bucketUpper(i)
		lo := uint64(0)
		if i > 0 {
			lo = bucketUpper(i - 1)
		}
		if v > hi || (v > 0 && v <= lo) {
			t.Fatalf("value %d mapped to bucket %d with edges (%d, %d]", v, i, lo, hi)
		}
		if v >= 128 && float64(hi-lo)/float64(v) > 1.0/64 {
			t.Fatalf("bucket width %d at value %d exceeds 1/64", hi-lo, v)
		}
	}
	if i := bucketIndex(1 << 62); i != numBuckets-1 {
		t.Fatalf("clamped index %d, want %d", i, numBuckets-1)
	}
	for j := 0; j < numBounds; j++ {
		if b := uint64(1000) << j; bucketUpper(bucketIndex(b)) != b {
			t.Fatalf("bound %dns is not a bucket edge", b)
		}
	}
}

// TestQuantileAccuracyFilterLatencyShape records the shape of per-document
// filter latency — 100 000 values, 99% uniform in 38–42µs and a 1% tail
// uniform in 90–110µs — and holds p50/p90/p99/p99.9 to 2% of the exact
// quantiles. Factor-of-two buckets read this sample +20/+47/+52% high at
// p50/p90/p99.
func TestQuantileAccuracyFilterLatencyShape(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 100000)
	var h Histogram
	for i := range vals {
		v := 38e-6 + 4e-6*r.Float64()
		if r.Intn(100) == 0 {
			v = 90e-6 + 20e-6*r.Float64()
		}
		vals[i] = v
		h.Observe(v)
	}
	sort.Float64s(vals)
	sum := h.Snapshot().Summary()
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.50, sum.P50}, {0.90, sum.P90}, {0.99, sum.P99}, {0.999, sum.P999}} {
		exact := vals[int(c.q*float64(len(vals)))-1]
		if math.Abs(c.got-exact) > 0.02*exact {
			t.Errorf("p%v = %.2fµs, exact %.2fµs (%+.1f%%)", c.q*100, c.got*1e6, exact*1e6, 100*(c.got-exact)/exact)
		}
	}
}

// TestExpositionBoundsExact puts values 1ns below, on and 1ns above every
// finite le bound and checks that each cumulative count is the number of
// values at or below its bound, and that _sum and _count are exact.
func TestExpositionBoundsExact(t *testing.T) {
	var h Histogram
	var sumNS uint64
	for j := 0; j < numBounds; j++ {
		b := uint64(1000) << j
		for _, ns := range []uint64{b - 1, b, b + 1} {
			h.Observe(float64(ns) / 1e9)
			sumNS += ns
		}
	}
	r := NewRegistry()
	r.Histogram("x_seconds", "", &h)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for j, b := range BucketBounds() {
		want := fmt.Sprintf("x_seconds_bucket{le=%q} %d\n", fmtFloat(b), 3*j+2)
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	for _, want := range []string{
		fmt.Sprintf("x_seconds_bucket{le=\"+Inf\"} %d\n", 3*numBounds),
		fmt.Sprintf("x_seconds_count %d\n", 3*numBounds),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	_, line, _ := strings.Cut(out, "x_seconds_sum ")
	got, err := strconv.ParseFloat(strings.Fields(line)[0], 64)
	if err != nil || got != float64(sumNS)/1e9 {
		t.Fatalf("_sum = %v (%v), want %v", got, err, float64(sumNS)/1e9)
	}
}

// TestObserveZeroAllocs pins that recording allocates nothing.
func TestObserveZeroAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(40e-6) }); n != 0 {
		t.Fatalf("Observe allocates %v times", n)
	}
}
