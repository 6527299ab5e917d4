package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks (the same rule as numpy's default). xs is sorted in
// place. An empty input yields NaN so a missing phase cannot read as 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// rounds is one metric's per-round values; the reported number is their
// median, never a single reading.
type rounds []float64

// summary is what the harness prints beside every round-median metric.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func (r rounds) summary() summary {
	xs := append([]float64(nil), r...)
	return summary{
		Median: percentile(xs, 0.5),
		Q1:     percentile(xs, 0.25),
		Q3:     percentile(xs, 0.75),
		N:      len(xs),
	}
}

func (r rounds) median() float64 { return r.summary().Median }

func (r rounds) mean() float64 {
	if len(r) == 0 {
		return 0
	}
	var sum float64
	for _, v := range r {
		sum += v
	}
	return sum / float64(len(r))
}

// chunkQuantiles cuts xs into n contiguous rounds and returns each round's
// q-quantile — how a flat sample series (subscribe round trips) becomes a
// round series.
func chunkQuantiles(xs []float64, n int, q float64) rounds {
	if n > len(xs) {
		n = len(xs)
	}
	out := make(rounds, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(xs)/n, (i+1)*len(xs)/n
		out = append(out, percentile(append([]float64(nil), xs[lo:hi]...), q))
	}
	return out
}

// relDiff is |a-b| as a share of their mean: the A/A disagreement measure.
func relDiff(a, b float64) float64 {
	m := (a + b) / 2
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Abs(m)
}
