package xpushstream_test

import (
	"fmt"
	"testing"
	"time"

	xpushstream "repro"
	"repro/internal/load"
	"repro/internal/xpath"
)

// sweepWorkload draws n canonically distinct protein filters and a pool of
// documents the way the benchmark's engine-filter workload does (its plan
// code lives in the nested benchmark module and cannot be imported here).
func sweepWorkload(tb testing.TB, n int) (filters []string, docs [][]byte) {
	spec := load.DefaultSpec()
	spec.Seed = 1
	spec.Filters = 3*n + 64 // the generator repeats itself; see canonically distinct below
	spec.DocSizes = []load.SizeClass{{Bytes: 4096, Weight: 1}}
	spec.DocPool = 128
	spec.Phases = []load.Phase{{Name: "unused", Duration: time.Second}}
	plan, err := load.BuildPlan(spec)
	if err != nil {
		tb.Fatal(err)
	}
	seen := make(map[string]bool, n)
	for _, q := range plan.Filters {
		canon, err := xpath.Canonicalize(q)
		if err != nil {
			tb.Fatal(err)
		}
		if !seen[canon] {
			seen[canon] = true
			if filters = append(filters, q); len(filters) == n {
				return filters, plan.Docs[0]
			}
		}
	}
	tb.Fatalf("generator produced %d canonically distinct filters, want %d", len(filters), n)
	return nil, nil
}

// BenchmarkFilterCountSweep is ROADMAP item 4's sweep: the paper's
// "throughput vs. number of filters" experiment on a warm machine, Config{}
// as in the benchmark's engine-filter workload. The paper's claim is that
// ns/doc does not depend on the filter count; the extra metrics say which
// term does when it is not flat (matches/doc is result assembly, approx-MB
// is the table footprint the probes miss cache in, hitratio < 1 is lazy
// construction still running).
func BenchmarkFilterCountSweep(b *testing.B) {
	for _, n := range []int{500, 5_000, 50_000} {
		b.Run(fmt.Sprintf("filters=%d", n), func(b *testing.B) {
			if n > 5_000 && testing.Short() {
				b.Skip("compiles 50k filters")
			}
			filters, docs := sweepWorkload(b, n)
			e, err := xpushstream.Compile(filters, xpushstream.Config{})
			if err != nil {
				b.Fatal(err)
			}
			warmUp(b, e, docs)
			matches := 0
			count := func(m []int) { matches += len(m) }
			before := e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, d := range docs {
					if err := e.FilterBytes(d, count); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			after := e.Stats()
			nDocs := float64(b.N * len(docs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nDocs, "ns/doc")
			b.ReportMetric(float64(after.States), "states")
			b.ReportMetric(float64(after.Hits-before.Hits)/float64(after.Lookups-before.Lookups), "hitratio")
			b.ReportMetric(float64(e.ApproxMemoryBytes())/(1<<20), "approx-MB")
			b.ReportMetric(float64(matches)/nDocs, "matches/doc")
		})
	}
}

// warmUp makes cold passes over docs until the lazy machine stops growing.
func warmUp(b *testing.B, e *xpushstream.Engine, docs [][]byte) {
	for pass, states := 0, -1; pass < 4 && e.Stats().States != states; pass++ {
		states = e.Stats().States
		for _, d := range docs {
			if err := e.FilterBytes(d, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFilterTraced prices tracing a document: a recorder that samples
// every document against none, on the sweep's 5000 filters in one machine
// and split over two layers, warm. ns/op is ns/doc. A traced document runs
// the same event methods as an untraced one; only its boundaries read the
// machines' counters and record the filter span, so the two should cost
// about the same at any layer count (EXPERIMENTS.md "Tracing off the event
// path").
func BenchmarkFilterTraced(b *testing.B) {
	filters, docs := sweepWorkload(b, 5_000)
	for _, layers := range []int{1, 2} {
		e, err := xpushstream.Compile(filters[:len(filters)/layers], xpushstream.Config{})
		if err == nil && layers == 2 {
			e, err = e.WithQueries(filters[len(filters)/2:])
		}
		if err != nil {
			b.Fatal(err)
		}
		if e.NumLayers() != layers {
			b.Fatalf("%d layers, want %d", e.NumLayers(), layers)
		}
		warmUp(b, e, docs)
		for _, traced := range []bool{false, true} {
			b.Run(fmt.Sprintf("layers=%d/traced=%v", layers, traced), func(b *testing.B) {
				var rec *xpushstream.TraceRecorder
				if traced {
					rec = xpushstream.NewTraceRecorder(1, 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tc := rec.Begin("document")
					if err := e.FilterBytesTraced(docs[i%len(docs)], tc, xpushstream.TraceRoot, nil); err != nil {
						b.Fatal(err)
					}
					tc.Finish()
				}
			})
		}
	}
}
