package xpushstream

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// These tests pin down that the observability hooks are race-free: stats can
// be scraped (as a /metrics handler would) while the engine is filtering, on
// one goroutine or many. They are fast enough for -short and are primarily
// meant to run under -race (see .github/workflows/ci.yml).

// scrapeWhile calls stats() in a tight loop until done is closed.
func scrapeWhile(done <-chan struct{}, wg *sync.WaitGroup, stats func() Stats) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s := stats()
				_ = s.LatencySummary()
				_ = s.WindowHitRatio
			}
		}
	}()
}

func buildStream(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("<m><v>1</v><w>4</w></m>")
	}
	return sb.String()
}

// TestStatsConcurrentWithFilterDocument: concurrent FilterDocument callers
// on one engine are each counted once, in documents, matches, bytes and
// latency observations, while a scraper reads the counters.
func TestStatsConcurrentWithFilterDocument(t *testing.T) {
	base, err := Compile([]string{"/m[v=1]", "/m[v=2]", "//m[w>3]"}, Config{TopDownPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapeWhile(done, &scrapers, base.Stats)
	const callers, perCaller = 4, 300
	doc := []byte("<m><v>1</v><w>4</w></m>")
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if m, err := base.FilterDocument(doc); err != nil || len(m) != 2 {
					errs <- fmt.Errorf("matches %v, err %v", m, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := base.Stats()
	const n = callers * perCaller
	if st.Documents != n || st.Matches != 2*n || st.FilterLatency.Count != n {
		t.Errorf("documents %d, matches %d, latency observations %d; want %d, %d, %d",
			st.Documents, st.Matches, st.FilterLatency.Count, n, 2*n, n)
	}
	if st.Bytes != int64(n*len(doc)) {
		t.Errorf("bytes = %d, want %d", st.Bytes, n*len(doc))
	}
}

func TestEngineStatsConcurrentWithFilterStream(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "//m[w>3]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	scrapeWhile(done, &wg, e.Stats)
	if err := e.FilterStreaming(strings.NewReader(buildStream(500)), func([]int) {}); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if st := e.Stats(); st.Documents != 500 || st.Bytes == 0 {
		t.Errorf("stats: %+v", st)
	}
}
