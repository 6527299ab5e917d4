package xpushstream

// Benchmarks regenerating the paper's evaluation (one per figure; see
// DESIGN.md for the experiment index). Figures sharing a sweep are
// benchmarked through that sweep. The default scale is "smoke" so that
// `go test -bench=.` terminates quickly; set XPUSH_BENCH_SCALE=default or
// =paper for larger runs (cmd/xpushbench is the full harness with table
// output).
//
// Custom metrics reported: states (machine states created), avgsize (AFA
// states per machine state), hitratio, and MB/s where meaningful.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/afa"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/perquery"
	"repro/internal/sax"
	"repro/internal/workload"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

func benchScale() bench.Scale {
	name := os.Getenv("XPUSH_BENCH_SCALE")
	if name == "" {
		name = "smoke"
	}
	s, ok := bench.Scales[name]
	if !ok {
		panic("unknown XPUSH_BENCH_SCALE " + name)
	}
	return s
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(datagen.ProteinLike(), scale, io.Discard)
		if err := r.Figure(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5a(b *testing.B)  { runFigure(b, "5a") }
func BenchmarkFig5b(b *testing.B)  { runFigure(b, "5b") }
func BenchmarkFig6a(b *testing.B)  { runFigure(b, "6a") }
func BenchmarkFig6b(b *testing.B)  { runFigure(b, "6b") }
func BenchmarkFig7a(b *testing.B)  { runFigure(b, "7a") }
func BenchmarkFig7b(b *testing.B)  { runFigure(b, "7b") }
func BenchmarkFig8(b *testing.B)   { runFigure(b, "8") }
func BenchmarkFig9a(b *testing.B)  { runFigure(b, "9a") }
func BenchmarkFig9b(b *testing.B)  { runFigure(b, "9b") }
func BenchmarkFig10a(b *testing.B) { runFigure(b, "10a") }
func BenchmarkFig10b(b *testing.B) { runFigure(b, "10b") }
func BenchmarkFig11a(b *testing.B) { runFigure(b, "11a") }
func BenchmarkFig11b(b *testing.B) { runFigure(b, "11b") }

// BenchmarkAbstractThroughput measures the abstract's sustained-throughput
// claim: the fully optimized, trained machine streaming data (MB/s).
func BenchmarkAbstractThroughput(b *testing.B) {
	scale := benchScale()
	ds := datagen.ProteinLike()
	for _, mean := range []float64{1, 10.45} {
		n := scale.AbstractQueries
		if mean > 1 {
			n /= 10
		}
		b.Run(fmt.Sprintf("preds=%.2f", mean), func(b *testing.B) {
			filters := workload.Generate(ds, bench.WorkloadParams(42, n, mean))
			data := datagen.NewGenerator(ds, 3).GenerateBytes(scale.DataBytes)
			a, err := afa.Compile(filters)
			if err != nil {
				b.Fatal(err)
			}
			m := core.New(a, core.Options{TopDown: true, Order: ds.DTD.SiblingOrder(), Early: true})
			if err := m.Train(workload.TrainingData(filters, ds.DTD)); err != nil {
				b.Fatal(err)
			}
			if err := m.Run(data); err != nil { // warm pass
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Run(data); err != nil {
					b.Fatal(err)
				}
			}
			st := m.Stats()
			b.ReportMetric(st.HitRatio(), "hitratio")
			b.ReportMetric(float64(st.BStates), "states")
		})
	}
}

// BenchmarkEnginesComparison pits the XPush machine against the two prior
// approaches it improves on: per-query machines (XFilter-style) and a
// shared-navigation NFA with unshared predicates (YFilter-style).
func BenchmarkEnginesComparison(b *testing.B) {
	ds := datagen.ProteinLike()
	filters := workload.Generate(ds, bench.WorkloadParams(42, 400, 5))
	doc := datagen.NewGenerator(ds, 3).GenerateDocument()

	b.Run("xpush", func(b *testing.B) {
		a, err := afa.Compile(filters)
		if err != nil {
			b.Fatal(err)
		}
		m := core.New(a, core.Options{TopDown: true, Order: ds.DTD.SiblingOrder()})
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := m.FilterDocument(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("yfilter", func(b *testing.B) {
		e := yfilter.NewEngine(filters)
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := e.FilterDocument(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perquery", func(b *testing.B) {
		e, err := perquery.NewEngine(filters)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := e.FilterDocument(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompileWorkload measures workload compilation (XPath parse + AFA
// construction + machine setup).
func BenchmarkCompileWorkload(b *testing.B) {
	ds := datagen.ProteinLike()
	filters := workload.Generate(ds, bench.WorkloadParams(42, 2000, 5))
	queries := make([]string, len(filters))
	for i, f := range filters {
		queries[i] = f.Source
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(queries, Config{TopDownPruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventProcessing isolates per-event machine cost on a warm
// machine (the paper's O(1)-per-event claim).
func BenchmarkEventProcessing(b *testing.B) {
	ds := datagen.ProteinLike()
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			filters := workload.Generate(ds, bench.WorkloadParams(42, n, 1.15))
			data := datagen.NewGenerator(ds, 3).GenerateBytes(256 << 10)
			a, err := afa.Compile(filters)
			if err != nil {
				b.Fatal(err)
			}
			m := core.New(a, core.Options{TopDown: true, Order: ds.DTD.SiblingOrder()})
			if err := m.Run(data); err != nil {
				b.Fatal(err)
			}
			events := m.Stats().Events
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Run(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkXPathParse measures the query parser.
func BenchmarkXPathParse(b *testing.B) {
	q := `//a[b/text()=1 and .//a[@c>2] and not(d="x" or e<5)]`
	for i := 0; i < b.N; i++ {
		if _, err := xpath.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSAXScanner compares the engine's hand-written byte scanner with
// encoding/xml (the paper's fast-parser-vs-Apache comparison).
func BenchmarkSAXScanner(b *testing.B) {
	data := datagen.NewGenerator(datagen.ProteinLike(), 1).GenerateBytes(1 << 20)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		var scan sax.ByteScanner
		for i := 0; i < b.N; i++ {
			var h nullSAX
			if err := scan.Parse(data, h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-xml", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var h nullSAX
			if err := sax.StdParse(data, h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFilterStreaming times FilterStreaming, which cuts each document
// off a reader before filtering it, next to FilterBytes over the same
// stream held in memory: the gap is the price of the cut.
func BenchmarkFilterStreaming(b *testing.B) {
	ds := datagen.ProteinLike()
	filters := workload.Generate(ds, bench.WorkloadParams(42, 1000, 1.15))
	queries := make([]string, len(filters))
	for i, f := range filters {
		queries[i] = f.Source
	}
	e, err := Compile(queries, Config{TopDownPruning: true})
	if err != nil {
		b.Fatal(err)
	}
	data := datagen.NewGenerator(ds, 3).GenerateBytes(1 << 20)
	if err := e.FilterBytes(data, func([]int) {}); err != nil { // warm pass
		b.Fatal(err)
	}
	b.Run("filter-bytes", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := e.FilterBytes(data, func([]int) {}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filter-streaming", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := e.FilterStreaming(bytes.NewReader(data), func([]int) {}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type nullSAX struct{}

func (nullSAX) StartDocument()           {}
func (nullSAX) StartElement(string)      {}
func (nullSAX) Text(string)              {}
func (nullSAX) EndElement(string)        {}
func (nullSAX) EndDocument()             {}
func (nullSAX) StartElementBytes([]byte) {}
func (nullSAX) TextBytes([]byte)         {}
func (nullSAX) EndElementBytes([]byte)   {}
