// Package obs is a dependency-free runtime-observability toolkit for the
// filtering engine: atomic counters and gauges, log-bucketed latency
// histograms with quantile summaries, a registry that encodes everything in
// the Prometheus text exposition format, and an optional net/http handler
// serving /metrics and /healthz.
//
// All primitives are safe for concurrent use; observation is lock-free
// (atomic adds), so they can sit on the engine's per-document hot path and
// still be read by a scraper while a stream is being filtered.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: numBuckets exponential buckets doubling from
// bucketBase, plus an implicit overflow bucket. With bucketBase = 1µs
// (observations are in seconds) the highest finite bound is ~33.5s — wide
// enough for per-document filter latencies from nanoseconds on a warm
// machine to multi-second cold-start documents.
const (
	numBuckets = 26
	bucketBase = 1e-6
)

// BucketBounds returns the histogram's finite upper bounds, in observation
// units (seconds for latency histograms). Bound i is bucketBase * 2^i.
func BucketBounds() []float64 {
	b := make([]float64, numBuckets)
	for i := range b {
		b[i] = bucketBase * float64(uint64(1)<<i)
	}
	return b
}

// Histogram is a log-bucketed histogram with lock-free observation. The
// zero value is ready to use.
type Histogram struct {
	buckets [numBuckets + 1]atomic.Uint64 // last bucket is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	maxBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation (e.g. a latency in seconds).
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	idx := bucketIndex(v)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// bucketIndex maps an observation to its bucket: the smallest i with
// v <= bucketBase*2^i, or the overflow bucket.
func bucketIndex(v float64) int {
	for i := 0; i < numBuckets; i++ {
		if v <= bucketBase*float64(uint64(1)<<i) {
			return i
		}
	}
	return numBuckets
}

// Snapshot returns a consistent-enough copy of the histogram for encoding
// or quantile estimation. (Counts are read bucket-by-bucket without a
// global lock; concurrent observations may skew a snapshot by a few
// observations, which is irrelevant for monitoring.)
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Buckets = make([]uint64, numBuckets+1)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	return s
}

// Snapshot is a point-in-time copy of a Histogram.
type Snapshot struct {
	// Buckets holds per-bucket (not cumulative) counts; the last entry is
	// the overflow (+Inf) bucket. Bounds are BucketBounds().
	Buckets []uint64
	Count   uint64
	Sum     float64
	Max     float64
}

// DeltaSince returns the observations recorded between prev and s — the
// per-interval view a scraper (or xpushload's progress reporter) computes
// from two cumulative snapshots, so interval reports and /metrics agree on
// the same underlying histogram. Cumulative encoding stays the default
// everywhere; deltas are always derived client-side from two snapshots.
//
// Sum and bucket counts subtract exactly (clamped at zero against
// concurrent-skew artifacts). Max cannot be recovered from cumulative
// counts alone: it is exact when the cumulative max advanced during the
// interval (the new max happened inside it), and otherwise bounded by the
// upper edge of the highest non-empty delta bucket.
func (s Snapshot) DeltaSince(prev Snapshot) Snapshot {
	var d Snapshot
	d.Buckets = make([]uint64, len(s.Buckets))
	top := -1
	for i := range s.Buckets {
		p := uint64(0)
		if i < len(prev.Buckets) {
			p = prev.Buckets[i]
		}
		if s.Buckets[i] > p {
			d.Buckets[i] = s.Buckets[i] - p
			top = i
		}
	}
	if s.Count > prev.Count {
		d.Count = s.Count - prev.Count
	}
	if s.Sum > prev.Sum {
		d.Sum = s.Sum - prev.Sum
	}
	switch {
	case s.Max > prev.Max:
		d.Max = s.Max
	case top >= 0 && top < numBuckets:
		d.Max = bucketBase * float64(uint64(1)<<top)
	case top == numBuckets:
		d.Max = s.Max // overflow bucket: cumulative max is the only bound
	}
	return d
}

// Window tracks a histogram's per-interval deltas: each Delta call returns
// the observations since the previous call (the first call returns
// everything so far). Not safe for concurrent use — give each reporter its
// own Window over the shared histogram.
type Window struct {
	h    *Histogram
	prev Snapshot
}

// NewWindow returns a delta tracker over h.
func NewWindow(h *Histogram) *Window { return &Window{h: h} }

// Delta returns the observations recorded since the last Delta call.
func (w *Window) Delta() Snapshot {
	cur := w.h.Snapshot()
	d := cur.DeltaSince(w.prev)
	w.prev = cur
	return d
}

// Merge adds another snapshot's observations into s (for aggregating
// per-worker histograms).
func (s *Snapshot) Merge(o Snapshot) {
	if len(s.Buckets) == 0 {
		s.Buckets = make([]uint64, numBuckets+1)
	}
	for i := range o.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket counts,
// interpolating linearly within the containing bucket. It returns 0 for an
// empty snapshot.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bucketBase * float64(uint64(1)<<(i-1))
		}
		hi := s.Max
		if i < numBuckets {
			hi = bucketBase * float64(uint64(1)<<i)
		}
		if hi > s.Max && s.Max > 0 {
			hi = s.Max
		}
		cum += float64(n)
		if cum >= rank {
			// Interpolate within [lo, hi].
			frac := 1 - (cum-rank)/float64(n)
			return lo + frac*(hi-lo)
		}
	}
	return s.Max
}

// Mean returns Sum/Count (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Summary condenses a snapshot into the quantile set the engine reports.
type Summary struct {
	Count              uint64
	Sum                float64
	Mean               float64
	P50, P90, P99, Max float64
}

// Summary computes the standard p50/p90/p99/max summary.
func (s Snapshot) Summary() Summary {
	return Summary{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}
