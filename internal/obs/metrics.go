// Package obs is a dependency-free runtime-observability toolkit for the
// filtering engine: atomic counters and gauges, log-linear latency
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
	"math/bits"
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

// Histogram layout. Observations are held as integer nanoseconds of their
// unit (1e-9 s for latencies, 1e-9 of a count for sizes) in log-linear
// buckets: 64 linear sub-buckets per power of two, so a bucket is never
// wider than 1/64 of its values (a quantile is off by at most ~1.6%).
//
// Buckets are (lo, hi]: a value equal to an edge counts in the bucket below
// it, matching Prometheus's le. Every exposition bound 1µs·2^i is 125·2^(i+3)
// ns, whose mantissa fits in seven bits, so it is a bucket edge and each
// cumulative le count is a sum of whole buckets.
const (
	subBits    = 6
	subCount   = 1 << subBits
	topBits    = 42 // values from 2^42 ns (~73 min) up share the top bucket
	maxNanos   = uint64(1) << topBits
	numBuckets = (topBits - subBits + 1) * subCount
	numBounds  = 26 // finite exposition bounds: 1µs·2^i, up to ~33.5s
)

// BucketBounds returns the exposition's finite le bounds, in observation
// units (seconds for latency histograms). Bound i is 1e-6 * 2^i.
func BucketBounds() []float64 {
	b := make([]float64, numBounds)
	for i := range b {
		b[i] = 1e-6 * float64(uint64(1)<<i)
	}
	return b
}

// Histogram is a log-linear histogram with lock-free observation. The zero
// value is ready to use; it takes numBuckets*8 bytes (~19 KB).
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds, CAS-updated
}

// Observe records one observation (e.g. a latency in seconds). It does not
// allocate.
func (h *Histogram) Observe(v float64) { h.add(toNanos(v), 1) }

func (h *Histogram) add(ns, n uint64) {
	h.buckets[bucketIndex(ns)].Add(n)
	h.count.Add(n)
	h.sum.Add(ns * n)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// toNanos rounds an observation to integer nanoseconds; negative and NaN
// values count as 0, huge ones clamp at 2^62.
func toNanos(v float64) uint64 {
	switch {
	case !(v > 0):
		return 0
	case v >= 1<<62/1e9:
		return 1 << 62
	}
	return uint64(v*1e9 + 0.5)
}

// bucketIndex maps a nanosecond value to its bucket in O(1): below 64 each
// value is its own bucket; above, the bit length picks the power of two and
// the next six bits the linear sub-bucket.
func bucketIndex(ns uint64) int {
	if ns > 0 {
		ns-- // (lo, hi] buckets
	}
	if ns >= maxNanos {
		ns = maxNanos - 1
	}
	if ns < subCount {
		return int(ns)
	}
	exp := uint(bits.Len64(ns)) - subBits - 1
	return int(uint64(exp)<<subBits + ns>>exp)
}

// bucketUpper returns bucket i's inclusive upper edge in nanoseconds.
func bucketUpper(i int) uint64 {
	if i < subCount {
		return uint64(i) + 1
	}
	exp := uint(i>>subBits) - 1
	return (uint64(i&(subCount-1)) + subCount + 1) << exp
}

// Snapshot returns a consistent-enough copy of the histogram for encoding
// or quantile estimation. (Counts are read bucket-by-bucket without a
// global lock; concurrent observations may skew a snapshot by a few
// observations, which is irrelevant for monitoring.)
func (h *Histogram) Snapshot() Snapshot {
	top := len(h.buckets)
	for top > 0 && h.buckets[top-1].Load() == 0 {
		top--
	}
	s := Snapshot{Buckets: make([]uint64, top), Count: h.count.Load()}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = float64(h.sum.Load()) / 1e9
	s.Max = float64(h.max.Load()) / 1e9
	return s
}

// Snapshot is a point-in-time copy of a Histogram.
type Snapshot struct {
	// Buckets holds per-bucket (not cumulative) counts in the log-linear
	// layout, up to the highest non-empty bucket.
	Buckets []uint64
	Count   uint64
	Sum     float64
	Max     float64
}

// DeltaSince returns the observations recorded between prev and s — the
// per-interval view a scraper (or xpushload's progress reporter) computes
// from two cumulative snapshots, so interval reports and /metrics agree on
// the same underlying histogram.
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
	case top >= 0:
		d.Max = math.Min(float64(bucketUpper(top))/1e9, s.Max)
	}
	return d
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket counts,
// interpolating linearly within the containing bucket (clamped at Max). It
// returns 0 for an empty snapshot.
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
		cum += float64(n)
		if cum >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(bucketUpper(i-1)) / 1e9
			}
			hi := math.Min(float64(bucketUpper(i))/1e9, s.Max)
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
	Count                    uint64
	Sum                      float64
	Mean                     float64
	P50, P90, P99, P999, Max float64
}

// Summary computes the standard p50/p90/p99/p99.9/max summary.
func (s Snapshot) Summary() Summary {
	return Summary{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		Max:   s.Max,
	}
}
