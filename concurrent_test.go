package xpushstream

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/sax"
	"repro/internal/workload"
)

// proteinWorkload returns n generated protein filters and docs documents.
func proteinWorkload(n, docs int) ([]string, [][]byte) {
	ds := datagen.ProteinLike()
	filters := workload.Generate(ds, bench.WorkloadParams(59, n, 5))
	queries := make([]string, len(filters))
	for i, f := range filters {
		queries[i] = f.Source
	}
	gen := datagen.NewGenerator(ds, 60)
	out := make([][]byte, docs)
	for i := range out {
		out[i] = gen.GenerateDocument()
	}
	return queries, out
}

// filterConcurrently runs every document through e on each of n goroutines
// at once (each starting at a different document) and holds every match set
// to want.
func filterConcurrently(t *testing.T, e *Engine, n int, docs [][]byte, want []string) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range docs {
				di := (i + g*len(docs)/n) % len(docs)
				got, err := e.FilterDocument(docs[di])
				if err != nil || fmt.Sprint(got) != want[di] {
					t.Errorf("goroutine %d doc %d: %v, err %v; want %s", g, di, got, err, want[di])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func sequentialMatches(t *testing.T, e *Engine, docs [][]byte) []string {
	t.Helper()
	want := make([]string, len(docs))
	for i, doc := range docs {
		m, err := e.FilterDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(m)
	}
	return want
}

// TestConcurrentColdStart: goroutines start together on a cold engine, so
// nearly every document misses a table, gives up its read lock, waits for the
// write lock behind the others and probes again. Every match set must equal a
// sequential run's, with and without top-down states in the table keys.
func TestConcurrentColdStart(t *testing.T) {
	queries, docs := proteinWorkload(2000, 24)
	for _, cfg := range []Config{{}, {TopDownPruning: true, EarlyNotification: true}} {
		ref, err := Compile(queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := sequentialMatches(t, ref, docs)
		cold, err := Compile(queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		filterConcurrently(t, cold, 4, docs, want)
		st := cold.Stats()
		if st.Documents != int64(4*len(docs)) || st.ExclusiveDocuments == 0 || st.ExclusiveDocuments > st.Documents {
			t.Errorf("%+v: %d documents, %d exclusive; want %d documents, some of them exclusive",
				cfg, st.Documents, st.ExclusiveDocuments, 4*len(docs))
		}
		// The concurrent fill built the machine a sequential run builds.
		if rs := ref.Stats(); st.States != rs.States || st.TopDownStates != rs.TopDownStates {
			t.Errorf("%+v: concurrent fill interned %d+%d states, sequential %d+%d",
				cfg, st.States, st.TopDownStates, rs.States, rs.TopDownStates)
		}
	}
}

// TestMaxStatesFlushWithDocumentsInFlight: a flush renumbers every state, so
// under a small cap with documents overlapping it must never run while
// another document holds state ids (a stale id shows as a wrong match set or
// an index out of range), and it must still run once the machine is idle.
func TestMaxStatesFlushWithDocumentsInFlight(t *testing.T) {
	queries, docs := proteinWorkload(300, 24)
	ref, err := Compile(queries, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialMatches(t, ref, docs)
	if ref.Stats().States < 200 {
		t.Fatalf("reference run built %d states: a cap of 40 would not bite", ref.Stats().States)
	}
	capped, err := Compile(queries, Config{MaxStates: 40})
	if err != nil {
		t.Fatal(err)
	}
	layered, err := capped.WithQueries(nil)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		filterConcurrently(t, capped, 4, docs, want)
	}
	// Idle now, and past the cap unless the last documents happened to
	// flush: the next boundary flushes.
	before := capped.Stats().Flushes
	if _, err := capped.FilterDocument(docs[0]); err != nil {
		t.Fatal(err)
	}
	st := capped.Stats()
	if st.Flushes == 0 || (st.Flushes == before && st.States > 40+200) {
		t.Errorf("flushes %d -> %d with %d states interned: the idle machine did not flush", before, st.Flushes, st.States)
	}
	// A generation sharing the capped layer sees the same tables.
	filterConcurrently(t, layered, 2, docs, want)
}

// TestExclusiveDocuments: the counter that says whether a workload ran on
// shared tables. A static workload stops taking the write lock once warm; one
// with a contains() predicate takes it on every document that has text.
func TestExclusiveDocuments(t *testing.T) {
	queries, docs := proteinWorkload(500, 24)
	e, err := Compile(queries, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialMatches(t, e, docs)
	sequentialMatches(t, e, docs) // Taccept of states first reached at a document's end
	warm := e.Stats()
	if warm.ExclusiveDocuments == 0 || warm.ExclusiveDocuments > int64(len(docs)) {
		t.Fatalf("cold pass: %d of %d documents exclusive", warm.ExclusiveDocuments, warm.Documents)
	}
	filterConcurrently(t, e, 4, docs, want)
	if st := e.Stats(); st.ExclusiveDocuments != warm.ExclusiveDocuments || st.Documents != warm.Documents+int64(4*len(docs)) {
		t.Errorf("warm static run: exclusive documents %d -> %d over %d documents",
			warm.ExclusiveDocuments, st.ExclusiveDocuments, st.Documents-warm.Documents)
	}

	sf, err := Compile([]string{`//m[contains(v, "x")]`, `//m[w = 1]`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<m><v>xy</v><w>1</w></m>`)
	filterConcurrently(t, sf, 3, [][]byte{doc, doc, doc, doc}, []string{"[0 1]", "[0 1]", "[0 1]", "[0 1]"})
	if st := sf.Stats(); st.Documents != 12 || st.ExclusiveDocuments != st.Documents {
		t.Errorf("contains() workload: %d of %d documents exclusive, want all", st.ExclusiveDocuments, st.Documents)
	}
}

// TestParseErrorReleasesDocumentLock: a document that fails to parse ends
// mid-document; its read lock must not outlive the call, or the next table
// miss waits for the write lock forever.
func TestParseErrorReleasesDocumentLock(t *testing.T) {
	e, err := Compile([]string{`//a[b = 1]`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	layered, err := e.WithQueries([]string{`//a[c = 2]`})
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []*Engine{e, layered} {
		if _, err := on.FilterDocument([]byte(`<a><b>1</c></a>`)); err == nil {
			t.Fatal("mismatched end tag accepted")
		}
		m, err := on.FilterDocument([]byte(`<a><b>1</b><c>2</c><d>3</d></a>`))
		if err != nil || len(m) != on.NumQueries() {
			t.Fatalf("after a parse error: matches %v, err %v", m, err)
		}
	}
}

// BenchmarkConcurrentFilter is the multi-core reading: 1 MB of protein
// documents through one warm 2000-filter engine, split between n goroutines
// calling FilterBytes. Memory is one machine's whatever n is, and no document
// of the timed loop may take the write lock.
func BenchmarkConcurrentFilter(b *testing.B) {
	ds := datagen.ProteinLike()
	filters := workload.Generate(ds, bench.WorkloadParams(59, 2000, 5))
	queries := make([]string, len(filters))
	for i, f := range filters {
		queries[i] = f.Source
	}
	e, err := Compile(queries, Config{TopDownPruning: true})
	if err != nil {
		b.Fatal(err)
	}
	data := datagen.NewGenerator(ds, 60).GenerateBytes(1 << 20)
	var docs [][]byte
	if err := sax.StreamDocuments(bytes.NewReader(data), func(doc []byte) error {
		docs = append(docs, append([]byte(nil), doc...))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	pass := func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(docs); i += n {
					if err := e.FilterBytes(docs[i], func([]int) {}); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	pass(1)
	pass(1) // Taccept of states first reached at a document's end
	// Scaling needs cores: on GOMAXPROCS=1 the extra goroutines only add
	// scheduling.
	b.Logf("GOMAXPROCS=%d, %d documents, machine memory %.1f MB", runtime.GOMAXPROCS(0), len(docs), float64(e.ApproxMemoryBytes())/(1<<20))
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("goroutines=%d", n), func(b *testing.B) {
			before := e.Stats().ExclusiveDocuments
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass(n)
			}
			b.StopTimer()
			if x := e.Stats().ExclusiveDocuments - before; x != 0 {
				b.Fatalf("%d documents of the warm timed loop took the write lock", x)
			}
		})
	}
}
