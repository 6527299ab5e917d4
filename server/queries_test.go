package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/server"
)

// queriesDoc mirrors the /debug/queries payload.
type queriesDoc struct {
	Enabled  bool  `json:"enabled"`
	Tracked  int   `json:"tracked"`
	Cap      int   `json:"cap"`
	Overflow int64 `json:"overflow"`
	Queries  []struct {
		Key           uint64  `json:"key"`
		Query         string  `json:"query"`
		FilterSeconds float64 `json:"filter_seconds"`
		StatesCreated int64   `json:"states_created"`
		Matches       int64   `json:"matches"`
		Fanout        int64   `json:"fanout"`
		ReplayDocs    int64   `json:"replay_docs"`
	} `json:"queries"`
}

func getQueries(t testing.TB, debugAddr string) queriesDoc {
	t.Helper()
	resp, err := http.Get("http://" + debugAddr + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc queriesDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("decode /debug/queries: %v\n%s", err, b)
	}
	return doc
}

// TestDebugQueriesRanking drives traced traffic at two subscriptions and
// checks /debug/queries ranks the one attracting the expensive documents,
// with the per-query top-K series on /metrics agreeing.
func TestDebugQueriesRanking(t *testing.T) {
	srv := startServer(t, server.Config{DebugAddr: "127.0.0.1:0", TraceSample: 1})
	col := newCollector()
	c := dialSub(t, srv.Addr(), col)
	if _, err := c.Subscribe("//order"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("//never"); err != nil {
		t.Fatal(err)
	}
	pub := dialSub(t, srv.Addr(), nil)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, err := pub.Publish([]byte(`<order><sku>1</sku></order>`)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "deliveries", func() bool { return col.count() == rounds })

	doc := getQueries(t, srv.DebugAddr())
	if !doc.Enabled {
		t.Fatal("/debug/queries reports disabled with tracing on")
	}
	if doc.Tracked != 1 || len(doc.Queries) != 1 {
		t.Fatalf("tracked = %d, queries = %+v; want exactly the matched query", doc.Tracked, doc.Queries)
	}
	top := doc.Queries[0]
	if !strings.Contains(top.Query, "order") {
		t.Fatalf("top query = %q, want the //order filter", top.Query)
	}
	if top.Matches != rounds || top.Fanout != rounds {
		t.Fatalf("top = %+v, want %d matches and fanout", top, rounds)
	}
	if top.FilterSeconds <= 0 {
		t.Fatalf("top filter_seconds = %v, want > 0", top.FilterSeconds)
	}

	body := scrape(t, srv.DebugAddr())
	for _, want := range []string{
		"xpush_query_filter_seconds_total{",
		"xpush_query_matches_total{",
		`key="all"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	got := -1.0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `xpush_query_matches_total{key="`) && !strings.Contains(line, `key="all"`) {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				fmt.Sscanf(line[i+1:], "%g", &got)
			}
			break
		}
	}
	if got != rounds {
		t.Fatalf("xpush_query_matches_total top series = %v, want %d", got, rounds)
	}
}

// TestDebugQueriesDisabled: without tracing the profiler does not exist and
// the endpoint says so instead of serving an empty ranking as real data.
func TestDebugQueriesDisabled(t *testing.T) {
	srv := startServer(t, server.Config{DebugAddr: "127.0.0.1:0"})
	pub := dialSub(t, srv.Addr(), nil)
	if _, err := pub.Publish([]byte(`<a/>`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if doc := getQueries(t, srv.DebugAddr()); doc.Enabled || len(doc.Queries) != 0 {
		t.Fatalf("disabled profiler served %+v", doc)
	}
}
