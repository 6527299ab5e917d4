package xpushstream

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestPoolMatchesSequential(t *testing.T) {
	base, err := Compile([]string{"/m[v=1]", "/m[v=2]", "//m[w>3]"}, Config{TopDownPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	var stream strings.Builder
	var want []string
	for i := 0; i < 200; i++ {
		doc := fmt.Sprintf("<m><v>%d</v><w>%d</w></m>", i%4, i%6)
		stream.WriteString(doc)
		m, err := base.FilterDocument([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprint(m))
	}
	pool := NewPool(base, 4)
	got := make([]string, len(want))
	var mu sync.Mutex
	err = pool.FilterStream(strings.NewReader(stream.String()), func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		if r.Err != nil {
			t.Errorf("doc %d: %v", r.Seq, r.Err)
			return
		}
		got[r.Seq] = fmt.Sprint(r.Matches)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("doc %d: pool %s vs sequential %s", i, got[i], want[i])
		}
	}
}

func TestPoolErrorPropagates(t *testing.T) {
	base, err := Compile([]string{"/a"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(base, 2)
	// Malformed stream: splitter error.
	err = pool.FilterStream(strings.NewReader("<a/><broken"), func(Result) {})
	if err == nil {
		t.Error("truncated stream should error")
	}
}

func TestPoolStopsSubmittingAfterFirstError(t *testing.T) {
	base, err := Compile([]string{"//x"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(base, 1)
	// A poisoned document mid-stream: the splitter sees balanced tag depth
	// and hands it over as a complete document, but the scanner rejects
	// the mismatched end tag. Everything after it must not be filtered.
	const n = 5000
	var stream strings.Builder
	stream.WriteString("<d><x/></d>")
	stream.WriteString("<a><b></c></a>") // poison: seq 1
	for i := 2; i < n; i++ {
		stream.WriteString("<d><x/></d>")
	}
	var mu sync.Mutex
	delivered := 0
	sawErr := false
	err = pool.FilterStream(strings.NewReader(stream.String()), func(r Result) {
		mu.Lock()
		defer mu.Unlock()
		delivered++
		if r.Err != nil {
			sawErr = true
		}
	})
	if err == nil {
		t.Fatal("poisoned document must surface as a stream error")
	}
	if !sawErr {
		t.Error("poisoned document's Result.Err not delivered")
	}
	// The collector records the error while at most a handful of documents
	// are buffered or in flight; the seed behavior (split and filter the
	// entire remaining stream) delivers all n.
	if delivered >= n/2 {
		t.Errorf("delivered %d of %d documents after the first error; splitter was not cancelled", delivered, n)
	}
}

func TestPoolAllDocumentsSeen(t *testing.T) {
	base, err := Compile([]string{"//x"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(base, 3)
	var stream strings.Builder
	const n = 1000
	for i := 0; i < n; i++ {
		stream.WriteString("<d><x/></d>")
	}
	var mu sync.Mutex
	var seqs []int
	err = pool.FilterStream(strings.NewReader(stream.String()), func(r Result) {
		mu.Lock()
		seqs = append(seqs, r.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != n {
		t.Fatalf("results = %d", len(seqs))
	}
	sort.Ints(seqs)
	for i, s := range seqs {
		if s != i {
			t.Fatalf("missing/duplicate sequence at %d: %d", i, s)
		}
	}
}

// TestEngineFilterDocumentConcurrent: the request/response entry point
// agrees with a sequential run under concurrent callers on one engine.
func TestEngineFilterDocumentConcurrent(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[v=2]", "//m[w>3]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([][]byte, 64)
	want := make([]string, len(docs))
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf("<m><v>%d</v><w>%d</w></m>", i%4, i%6))
		m, err := e.FilterDocument(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(m)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(docs))
	for i := range docs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := e.FilterDocument(docs[i])
			if err != nil {
				errs <- err
				return
			}
			if got := fmt.Sprint(m); got != want[i] {
				errs <- fmt.Errorf("doc %d: concurrent %s vs sequential %s", i, got, want[i])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
