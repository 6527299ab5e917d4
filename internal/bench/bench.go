// Package bench regenerates the paper's evaluation (Sec. 7, Figs. 5-11).
// The evaluation section contains no numbered tables; the figures are the
// complete result set. Each figure is a view over one of three parameter
// sweeps:
//
//   - SweepQueries (Figs. 5, 6, 7): workload size on the x-axis, one series
//     per machine variant; filtering time, number of states, average state
//     size.
//   - SweepPreds (Figs. 9a, 10a, 11a): predicates per query on the x-axis
//     with the total number of atomic predicates held fixed.
//   - SweepData (Figs. 8, 9b, 10b, 11b): data volume on the x-axis, one
//     series per workload size; hit ratio, cumulative filtering time,
//     states, state size.
//
// Absolute times are hardware-dependent; the reproduction targets the
// figures' shapes (see DESIGN.md for the per-figure shape expectations).
package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/afa"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/sax"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// Variant names one machine configuration (one series in Figs. 5-7).
type Variant struct {
	Name  string
	Opts  core.Options
	Train bool
	// ParseOnly measures the parser alone (the "parse" series): the byte
	// scanner Machine.Run stands on, delivering to a no-op handler.
	ParseOnly bool
	// StdParse measures the heavyweight reference parser (the paper's
	// Apache series).
	StdParse bool
}

// Variants returns the paper's series set for Figs. 5-7.
func Variants(ds *datagen.Dataset) []Variant {
	order := ds.DTD.SiblingOrder()
	return []Variant{
		{Name: "parse", ParseOnly: true},
		{Name: "basic", Opts: core.Options{PrecomputeValues: true}},
		{Name: "td", Opts: core.Options{TopDown: true}},
		{Name: "order", Opts: core.Options{Order: order, PrecomputeValues: true}},
		{Name: "td-order", Opts: core.Options{TopDown: true, Order: order}},
		{Name: "td-order-train", Opts: core.Options{TopDown: true, Order: order}, Train: true},
		{Name: "td-order-early-train", Opts: core.Options{TopDown: true, Order: order, Early: true}, Train: true},
	}
}

// Row is one measured point.
type Row struct {
	Series    string
	X         float64 // figure-specific: #queries, preds/query, or MB
	Time      time.Duration
	MBPerSec  float64
	States    int
	AvgSize   float64
	HitRatio  float64
	TotalPred int
	Matches   int64
	MemBytes  int64
}

// WorkloadParams derives generator parameters for a target mean
// predicates-per-query, mirroring the paper's two workload families (no
// wildcards or descendant axes in the reported runs).
func WorkloadParams(seed int64, n int, meanPreds float64) workload.Params {
	nested := 0.0
	if meanPreds > 3 {
		nested = 0.3 // bushy trees for predicate-heavy workloads
	}
	return workload.Params{
		Seed:           seed,
		NumQueries:     n,
		MeanPreds:      meanPreds,
		NestedPredProb: nested,
	}
}

// buildMachine compiles a workload into a machine for a variant, training it
// when the variant asks for it. It returns the machine and the compile +
// training time (not counted in filtering time, matching the paper, which
// reports filtering time on a constructed machine).
func buildMachine(filters []*xpath.Filter, ds *datagen.Dataset, v Variant) (*core.Machine, error) {
	a, err := afa.Compile(filters)
	if err != nil {
		return nil, err
	}
	m := core.New(a, v.Opts)
	if v.Train {
		if err := m.Train(workload.TrainingData(filters, ds.DTD)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// nullHandler discards events: a sax.Handler for the reference parser and a
// sax.BytesHandler for the byte scanner.
type nullHandler struct{}

func (nullHandler) StartDocument()           {}
func (nullHandler) StartElement(string)      {}
func (nullHandler) Text(string)              {}
func (nullHandler) EndElement(string)        {}
func (nullHandler) StartElementBytes([]byte) {}
func (nullHandler) TextBytes([]byte)         {}
func (nullHandler) EndElementBytes([]byte)   {}
func (nullHandler) EndDocument()             {}

// measure runs one variant over the data and returns a row.
func measure(v Variant, filters []*xpath.Filter, ds *datagen.Dataset, data []byte) (Row, error) {
	row := Row{Series: v.Name}
	switch {
	case v.ParseOnly:
		start := time.Now()
		if err := sax.ParseBytes(data, nullHandler{}); err != nil {
			return row, err
		}
		row.Time = time.Since(start)
	case v.StdParse:
		start := time.Now()
		if err := sax.StdParse(data, nullHandler{}); err != nil {
			return row, err
		}
		row.Time = time.Since(start)
	default:
		m, err := buildMachine(filters, ds, v)
		if err != nil {
			return row, err
		}
		start := time.Now()
		if err := m.Run(data); err != nil {
			return row, err
		}
		row.Time = time.Since(start)
		st := m.Stats()
		row.States = st.BStates
		row.AvgSize = st.AvgStateSize()
		row.HitRatio = st.HitRatio()
		row.Matches = st.Matches
		row.MemBytes = m.ApproxMemoryBytes()
	}
	row.MBPerSec = mbPerSec(len(data), row.Time)
	return row, nil
}

func mbPerSec(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// SweepQueries produces the rows behind Figs. 5, 6 and 7: every variant at
// every workload size.
func SweepQueries(ds *datagen.Dataset, queryCounts []int, meanPreds float64, dataBytes int, log io.Writer) ([]Row, error) {
	data := datagen.NewGenerator(ds, 1).GenerateBytes(dataBytes)
	var rows []Row
	for _, n := range queryCounts {
		filters := workload.Generate(ds, WorkloadParams(100+int64(n), n, meanPreds))
		total := workload.TotalAtomicPredicates(filters)
		for _, v := range Variants(ds) {
			row, err := measure(v, filters, ds, data)
			if err != nil {
				return nil, fmt.Errorf("%s at n=%d: %w", v.Name, n, err)
			}
			row.X = float64(n)
			row.TotalPred = total
			rows = append(rows, row)
			if log != nil {
				fmt.Fprintf(log, "  n=%-8d %-22s time=%-12v states=%-8d avgsize=%.1f\n",
					n, v.Name, row.Time.Round(time.Millisecond), row.States, row.AvgSize)
			}
		}
	}
	return rows, nil
}

// SweepPreds produces the rows behind Figs. 9a, 10a and 11a: the number of
// predicates per query varies while the total number of atomic predicates
// stays fixed (n = totalPreds / k).
func SweepPreds(ds *datagen.Dataset, predCounts []int, totalPreds int, dataBytes int, log io.Writer) ([]Row, error) {
	data := datagen.NewGenerator(ds, 1).GenerateBytes(dataBytes)
	var rows []Row
	for _, k := range predCounts {
		n := totalPreds / k
		if n == 0 {
			continue
		}
		filters := workload.Generate(ds, WorkloadParams(200+int64(k), n, float64(k)))
		total := workload.TotalAtomicPredicates(filters)
		for _, v := range Variants(ds) {
			row, err := measure(v, filters, ds, data)
			if err != nil {
				return nil, fmt.Errorf("%s at k=%d: %w", v.Name, k, err)
			}
			row.X = float64(k)
			row.TotalPred = total
			rows = append(rows, row)
			if log != nil {
				fmt.Fprintf(log, "  k=%-4d n=%-7d %-22s time=%-12v states=%-8d avgsize=%.1f\n",
					k, n, v.Name, row.Time.Round(time.Millisecond), row.States, row.AvgSize)
			}
		}
	}
	return rows, nil
}

// SweepData produces the rows behind Figs. 8, 9b, 10b and 11b: the machine
// (td-order-train configuration, 5 predicates per query as in the paper's
// data-size runs) processes a growing stream; after every chunk the
// cumulative time, hit ratio, state count and state size are recorded. One
// series per workload size.
func SweepData(ds *datagen.Dataset, workloadSizes []int, chunkBytes, chunks int, log io.Writer) ([]Row, error) {
	var rows []Row
	for _, n := range workloadSizes {
		filters := workload.Generate(ds, WorkloadParams(300+int64(n), n, 5))
		v := Variant{
			Name:  fmt.Sprintf("%d", n),
			Opts:  core.Options{TopDown: true, Order: ds.DTD.SiblingOrder()},
			Train: true,
		}
		m, err := buildMachine(filters, ds, v)
		if err != nil {
			return nil, err
		}
		gen := datagen.NewGenerator(ds, 2)
		var cum time.Duration
		for c := 1; c <= chunks; c++ {
			chunk := gen.GenerateBytes(chunkBytes)
			start := time.Now()
			if err := m.Run(chunk); err != nil {
				return nil, err
			}
			cum += time.Since(start)
			st := m.Stats()
			row := Row{
				Series:   v.Name,
				X:        float64(c*chunkBytes) / (1 << 20),
				Time:     cum,
				MBPerSec: mbPerSec(c*chunkBytes, cum),
				States:   st.BStates,
				AvgSize:  st.AvgStateSize(),
				HitRatio: st.HitRatio(),
				Matches:  st.Matches,
				MemBytes: m.ApproxMemoryBytes(),
			}
			rows = append(rows, row)
			if log != nil {
				fmt.Fprintf(log, "  n=%-8s mb=%-8.1f time=%-12v hit=%.4f states=%-8d\n",
					v.Name, row.X, cum.Round(time.Millisecond), row.HitRatio, row.States)
			}
		}
	}
	return rows, nil
}

// AbstractClaim measures the throughput claims of the paper's abstract: the
// sustained MB/s of the fully optimized machine at a given total number of
// atomic predicates, and the warm machine's time next to the two parsers.
type AbstractResult struct {
	TotalPreds        int
	MeanPreds         float64
	ColdMBPerSec      float64
	WarmMBPerSec      float64
	ScannerMBPerSec   float64
	StdParserMBPerSec float64
	// WarmLatency is the warm machine's per-document filter-latency
	// histogram summary (seconds) — the operational view behind the MB/s
	// numbers: a broker sizing its queues cares about p99, not the mean.
	WarmLatency obs.Summary
	// ColdStats and WarmStats are the machine's counters after the cold
	// pass and after the warm one. The warm pass runs on the states the
	// cold pass built, so it adds none.
	ColdStats, WarmStats core.Stats
}

// Abstract runs the abstract-claim measurement.
func Abstract(ds *datagen.Dataset, numQueries int, meanPreds float64, dataBytes int) (AbstractResult, error) {
	filters := workload.Generate(ds, WorkloadParams(42, numQueries, meanPreds))
	data := datagen.NewGenerator(ds, 3).GenerateBytes(dataBytes)
	res := AbstractResult{
		TotalPreds: workload.TotalAtomicPredicates(filters),
		MeanPreds:  float64(workload.TotalAtomicPredicates(filters)) / float64(numQueries),
	}
	v := Variant{Name: "full", Opts: core.Options{TopDown: true, Order: ds.DTD.SiblingOrder(), Early: true}, Train: true}
	m, err := buildMachine(filters, ds, v)
	if err != nil {
		return res, err
	}
	start := time.Now()
	if err := m.Run(data); err != nil {
		return res, err
	}
	res.ColdMBPerSec = mbPerSec(len(data), time.Since(start))
	res.ColdStats = m.Stats()
	// Second pass over the same data: the "completed" machine.
	start = time.Now()
	if err := m.Run(data); err != nil {
		return res, err
	}
	res.WarmMBPerSec = mbPerSec(len(data), time.Since(start))
	res.WarmStats = m.Stats()
	// Third pass, timed per document, for the warm latency distribution.
	var lat obs.Histogram
	err = sax.StreamDocuments(bytes.NewReader(data), func(doc []byte) error {
		t0 := time.Now()
		if err := m.Run(doc); err != nil {
			return err
		}
		lat.Observe(time.Since(t0).Seconds())
		return nil
	})
	if err != nil {
		return res, err
	}
	res.WarmLatency = lat.Snapshot().Summary()
	start = time.Now()
	if err := sax.ParseBytes(data, nullHandler{}); err != nil {
		return res, err
	}
	res.ScannerMBPerSec = mbPerSec(len(data), time.Since(start))
	start = time.Now()
	if err := sax.StdParse(data, nullHandler{}); err != nil {
		return res, err
	}
	res.StdParserMBPerSec = mbPerSec(len(data), time.Since(start))
	return res, nil
}
