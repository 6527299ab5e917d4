package xpushstream

import (
	"fmt"
	"strings"
	"testing"
)

func TestEngineStatsObservability(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[v=2]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	stream := strings.Repeat("<m><v>1</v></m>", 100)
	if err := e.FilterStreaming(strings.NewReader(stream), func([]int) {}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Documents != 100 {
		t.Errorf("documents = %d", s.Documents)
	}
	if s.Bytes != int64(len(stream)) {
		t.Errorf("bytes = %d, want %d", s.Bytes, len(stream))
	}
	if s.FilterLatency.Count != 100 {
		t.Errorf("latency observations = %d", s.FilterLatency.Count)
	}
	sum := s.LatencySummary()
	if sum.P50 <= 0 || sum.Max < sum.P50 || sum.P99 < sum.P50 {
		t.Errorf("implausible latency summary: %+v", sum)
	}
}

// windowGauges scrapes a registry holding RegisterMetrics's series under
// the default prefix and returns the two window gauges.
func windowGauges(reg *Registry) (ratio, added float64, err error) {
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "xpush_window_hit_ratio "); ok {
			_, err = fmt.Sscan(v, &ratio)
			found++
		} else if v, ok := strings.CutPrefix(line, "xpush_window_states_added "); ok {
			_, err = fmt.Sscan(v, &added)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("%d of the 2 window gauges in the scrape", found)
	}
	return ratio, added, nil
}

// TestWindowGauges: the window gauges cover the interval since the
// previous scrape. Warm traffic between two scrapes reads ratio 1 and no
// states added, while the cumulative ratio still carries the cold start; a
// swap to a consolidated engine, whose machine counters restart below the
// old totals, reads neither negative nor a ratio above 1.
func TestWindowGauges(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[v=2]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	RegisterMetrics(reg, "", StatsFunc(func() Stats { return e.Stats() }))
	scrape := func(docs int, when string) (ratio, added float64) {
		t.Helper()
		if err := e.FilterBytes([]byte(strings.Repeat("<m><v>1</v></m>", docs)), nil); err != nil {
			t.Fatal(err)
		}
		ratio, added, err := windowGauges(reg)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 0 || ratio > 1 || added < 0 {
			t.Fatalf("%s: hit ratio %v, states added %v", when, ratio, added)
		}
		return ratio, added
	}
	if ratio, added := scrape(3, "cold"); ratio == 1 || added == 0 {
		t.Errorf("cold documents read hit ratio %v and %v states added", ratio, added)
	}
	for i := 0; i < 2; i++ {
		if ratio, added := scrape(100, "warm"); ratio != 1 || added != 0 {
			t.Errorf("warm documents read hit ratio %v and %v states added, want 1 and 0", ratio, added)
		}
	}
	if s := e.Stats(); s.HitRatio >= 1 {
		t.Errorf("cumulative hit ratio %v carries no cold start", s.HitRatio)
	}
	next, _, err := e.Consolidated()
	if err != nil {
		t.Fatal(err)
	}
	e = next
	scrape(3, "after the swap")
	if ratio, added := scrape(100, "warm after the swap"); ratio != 1 || added != 0 {
		t.Errorf("warm documents after the swap read hit ratio %v and %v states added, want 1 and 0", ratio, added)
	}
}

// TestWindowCounterReset pins the reset rule on a scripted counter series:
// a counter that goes down restarted, and its current value is the change;
// more hits than lookups is a restart that counted past the old totals.
func TestWindowCounterReset(t *testing.T) {
	var w window
	for i, c := range []struct {
		lookups, hits int64
		states        int
		ratio, added  float64
	}{
		{100, 50, 40, 0.5, 40},
		{300, 250, 40, 1, 0},
		{300, 250, 40, 1, 0},  // idle: the last interval's ratio stands
		{20, 5, 10, 0.25, 10}, // a swap to a fresh base
		{400, 385, 30, 1, 20},
		{500, 475, 5, 0.9, 5}, // a MaxStates flush
		{520, 495, 5, 1, 0},
		{600, 555, 5, 0.75, 0},
		{640, 636, 12, 636.0 / 640, 7}, // restarted and counted past the old totals
	} {
		s := Stats{Lookups: c.lookups, Hits: c.hits, States: c.states}
		if ratio, added := w.hitRatio(s), w.statesAdded(s); ratio != c.ratio || added != c.added {
			t.Errorf("scrape %d: hit ratio %v, states added %v; want %v, %v", i, ratio, added, c.ratio, c.added)
		}
	}
}

func TestRegisterMetricsPrometheusOutput(t *testing.T) {
	e, err := Compile([]string{"//order[total > 10]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.FilterDocument([]byte("<order><total>50</total></order>")); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	RegisterMetrics(reg, "", e)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"xpush_documents_total 10",
		"xpush_matches_total 10",
		"xpush_events_total ",
		"xpush_bytes_total ",
		"xpush_hit_ratio ",
		"xpush_window_hit_ratio ",
		"xpush_skipped_elements_total 0", // the // step can match any element
		"# TYPE xpush_filter_latency_seconds summary",
		`xpush_filter_latency_seconds{quantile="0.5"}`,
		`xpush_filter_latency_seconds{quantile="0.99"}`,
		"xpush_filter_latency_seconds_count 10",
		"xpush_filter_latency_seconds_max ",
		`xpush_filter_latency_histogram_seconds_bucket{le="+Inf"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}
