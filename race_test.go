package xpushstream

import (
	"strings"
	"sync"
	"testing"
)

// These tests pin down that the observability hooks are race-free: stats can
// be scraped (as a /metrics handler would) while the parallel deployment
// paths are filtering. They are fast enough for -short and are primarily
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

func TestPoolStatsConcurrentWithFilterStream(t *testing.T) {
	base, err := Compile([]string{"/m[v=1]", "/m[v=2]", "//m[w>3]"}, Config{TopDownPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(base, 4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	scrapeWhile(done, &wg, base.Stats)
	stream := buildStream(400)
	for pass := 0; pass < 3; pass++ {
		if err := pool.FilterStream(strings.NewReader(stream), func(Result) {}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	st := base.Stats()
	if st.Documents != 3*400 {
		t.Errorf("documents = %d", st.Documents)
	}
	if st.FilterLatency.Count != 3*400 {
		t.Errorf("latency observations = %d", st.FilterLatency.Count)
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
	if err := e.FilterStream(strings.NewReader(buildStream(500)), func([]int) {}); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if st := e.Stats(); st.Documents != 500 || st.Bytes == 0 {
		t.Errorf("stats: %+v", st)
	}
}
