package xpushstream_test

import (
	"bytes"
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
func warmUp(tb testing.TB, e *xpushstream.Engine, docs [][]byte) {
	for pass, states := 0, -1; pass < 4 && e.Stats().States != states; pass++ {
		states = e.Stats().States
		for _, d := range docs {
			if err := e.FilterBytes(d, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestRestoredEngineSharesTables opens a snapshot of a warm sweep engine and
// runs it over the documents that warmed it: every table probe must hit and
// every document must run under the shared read lock, from the first
// document on. Counted, not timed.
func TestRestoredEngineSharesTables(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 500
	}
	filters, docs := sweepWorkload(t, n)
	warm, err := xpushstream.Compile(filters, xpushstream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	warmUp(t, warm, docs)
	var snap bytes.Buffer
	if err := warm.WriteWorkloadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	e, err := xpushstream.OpenWorkloadSnapshot(&snap, xpushstream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	for _, d := range docs {
		if err := e.FilterBytes(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if ex := st.ExclusiveDocuments - before.ExclusiveDocuments; ex != 0 {
		t.Errorf("%d of %d documents took the write lock on the restored engine, want 0", ex, len(docs))
	}
	if miss := (st.Lookups - before.Lookups) - (st.Hits - before.Hits); miss != 0 {
		t.Errorf("%d table misses on the restored engine, want 0", miss)
	}
	if st.States != before.States || st.TopDownStates != before.TopDownStates {
		t.Errorf("states %d/%d after the pass, %d/%d restored", st.States, st.TopDownStates, before.States, before.TopDownStates)
	}
}

// BenchmarkFilterTraced prices tracing a document: a recorder that samples
// every document against none, on the sweep's 5000 filters compiled into
// one machine and with half of them spliced in, warm. ns/op is ns/doc. A
// traced document runs the same event methods as an untraced one; only its
// boundaries read the machine's counters and record the filter span, so the
// two should cost about the same (EXPERIMENTS.md "Tracing off the event
// path").
func BenchmarkFilterTraced(b *testing.B) {
	filters, docs := sweepWorkload(b, 5_000)
	for _, spliced := range []bool{false, true} {
		compiled := filters
		if spliced {
			compiled = filters[:len(filters)/2]
		}
		e, err := xpushstream.Compile(compiled, xpushstream.Config{})
		if err == nil && spliced {
			e, err = e.WithQueries(filters[len(filters)/2:])
		}
		if err != nil {
			b.Fatal(err)
		}
		warmUp(b, e, docs)
		for _, traced := range []bool{false, true} {
			b.Run(fmt.Sprintf("spliced=%v/traced=%v", spliced, traced), func(b *testing.B) {
				var rec *xpushstream.TraceRecorder
				if traced {
					rec = xpushstream.NewTraceRecorder(1, 0)
				}
				filter := func(i int) {
					tc := rec.Begin("document")
					if err := e.FilterBytesTraced(docs[i%len(docs)], tc, xpushstream.TraceRoot, nil); err != nil {
						b.Fatal(err)
					}
					tc.Finish()
				}
				// Fill the recorder's ring first: from then on every kept
				// trace recycles the one it pushes out.
				for i := 0; i < 256; i++ {
					filter(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					filter(i)
				}
			})
		}
	}
}

// BenchmarkSubscribeMiss prices the engine's step on the SUBSCRIBE path: one
// filter no engine holds yet, added to a warm engine with WithQueries; ns/op
// is one call. The chain cases add each filter to the engine the previous
// call returned, as the broker's control plane does, starting from a machine
// compiled from N filters and warmed on the document pool; every 64 calls
// the chain restarts from a fresh warm engine, off the clock, so the
// workload stays near N. The fork case derives every call from the same warm
// 5 000-filter engine, as the benchmark's engine-filter subscribe phase
// does, with the same restart. Run it with -benchtime=640x or so: each
// restart compiles the workload.
func BenchmarkSubscribeMiss(b *testing.B) {
	const restart = 64
	for _, c := range []struct {
		n    int
		fork bool
	}{{2_000, false}, {20_000, false}, {5_000, true}} {
		name := fmt.Sprintf("chain/filters=%d", c.n)
		if c.fork {
			name = fmt.Sprintf("fork/filters=%d", c.n)
		}
		b.Run(name, func(b *testing.B) {
			filters, docs := sweepWorkload(b, c.n+restart)
			fresh := func() *xpushstream.Engine {
				e, err := xpushstream.Compile(filters[:c.n], xpushstream.Config{})
				if err != nil {
					b.Fatal(err)
				}
				warmUp(b, e, docs)
				return e
			}
			root := fresh()
			e := root
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%restart == 0 {
					b.StopTimer()
					root = fresh()
					e = root
					b.StartTimer()
				}
				from := e
				if c.fork {
					from = root
				}
				next, err := from.WithQueries([]string{filters[c.n+i%restart]})
				if err != nil {
					b.Fatal(err)
				}
				e = next
			}
		})
	}
}
