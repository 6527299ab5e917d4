package server

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// texts is a key -> canonical text resolver over a fixed table.
func texts(m map[uint64]string) func(uint64) string {
	return func(key uint64) string { return m[key] }
}

func TestProfilerSnapshotRanking(t *testing.T) {
	p := newQueryProfiler(0)
	canon := texts(map[uint64]string{1: "//a", 2: "//b"})
	p.observeFilter([]uint64{1, 2}, canon, 100, 5)
	p.observeFilter([]uint64{2}, canon, 300, 7)
	p.observeFanout(2, 3)
	p.observeReplay([]uint64{1}, canon)
	// Resolution comes from the text captured at first observation, which
	// survives the key leaving the dedup registry.
	entries, other, overflow := p.snapshot()
	if overflow != 0 {
		t.Fatalf("overflow = %d, want 0", overflow)
	}
	if len(entries) != 2 {
		t.Fatalf("len(entries) = %d, want 2", len(entries))
	}
	// Key 2 accumulated 400ns of filter time vs key 1's 100ns, so it ranks
	// first and resolves to its canonical text.
	if entries[0].Key != 2 || entries[0].Query != "//b" {
		t.Fatalf("entries[0] = %+v, want key 2 (//b) first", entries[0])
	}
	if entries[0].FilterSeconds != 400e-9 || entries[0].Matches != 2 || entries[0].Fanout != 3 || entries[0].StatesCreated != 12 {
		t.Fatalf("entries[0] = %+v", entries[0])
	}
	if entries[1].Key != 1 || entries[1].ReplayDocs != 1 || entries[1].Matches != 1 {
		t.Fatalf("entries[1] = %+v", entries[1])
	}
	if other.Matches != 0 || other.Query != "other" {
		t.Fatalf("other = %+v", other)
	}
}

func TestProfilerCardinalityCap(t *testing.T) {
	p := newQueryProfiler(2)
	canon := texts(map[uint64]string{1: "//a", 2: "//b", 3: "//c", 4: "//d"})
	p.observeFilter([]uint64{1}, canon, 10, 0)
	p.observeFilter([]uint64{2}, canon, 10, 0)
	p.observeFilter([]uint64{3, 4}, canon, 10, 0) // past the cap: both fold into other
	entries, other, overflow := p.snapshot()
	if len(entries) != 2 {
		t.Fatalf("len(entries) = %d, want 2 (cap)", len(entries))
	}
	if overflow != 2 {
		t.Fatalf("overflow = %d, want 2", overflow)
	}
	if other.Matches != 2 || other.FilterSeconds != 20e-9 {
		t.Fatalf("other = %+v", other)
	}
}

// TestUntracedProfilerZeroAllocs pins the nil-receiver discipline: with
// tracing off the profiler is nil and every observation is a free no-op,
// so the untraced publish hot path stays zero-allocation.
func TestUntracedProfilerZeroAllocs(t *testing.T) {
	var p *queryProfiler
	keys := []uint64{1, 2, 3}
	canons := texts(map[uint64]string{1: "//a", 2: "//b", 3: "//c"})
	if n := testing.AllocsPerRun(100, func() {
		p.observeFilter(keys, canons, 10, 5)
		p.observeFanout(1, 1)
		p.observeReplay(keys, canons)
	}); n != 0 {
		t.Fatalf("nil profiler allocated %v per observation", n)
	}
	// The other guard on the hot path: reading span cost off a nil trace
	// context (the untraced-document case) must also be free.
	var tc *trace.Ctx
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := tc.SpanCost("filter", "states_created"); ok {
			t.Fatal("nil ctx reported a span")
		}
	}); n != 0 {
		t.Fatalf("nil ctx SpanCost allocated %v per call", n)
	}
}

// TestWarmProfilerZeroAllocs: once a key's cell exists, further traced
// observations mutate it in place — no per-document allocation even on the
// traced path.
func TestWarmProfilerZeroAllocs(t *testing.T) {
	p := newQueryProfiler(8)
	keys := []uint64{1, 2}
	canons := texts(map[uint64]string{1: "//a", 2: "//b"})
	p.observeFilter(keys, canons, 10, 5)
	p.observeReplay(keys, canons)
	if n := testing.AllocsPerRun(100, func() {
		p.observeFilter(keys, canons, 10, 5)
		p.observeFanout(1, 2)
		p.observeReplay(keys, canons)
	}); n != 0 {
		t.Fatalf("warm profiler allocated %v per observation", n)
	}
}

func TestTracedPayloadRoundTrip(t *testing.T) {
	doc := []byte("<a/>")
	p := AppendTracedPayload(nil, 0xdeadbeef, doc)
	id, rest, err := SplitTracedPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0xdeadbeef || string(rest) != "<a/>" {
		t.Fatalf("round trip = (%#x, %q)", id, rest)
	}
	if _, _, err := SplitTracedPayload([]byte("short")); err == nil {
		t.Fatal("short traced payload accepted")
	}
}

// TestProfilerSeriesMonotone drives a query from below the exported top K
// into it and scrapes the five counter families before and after every
// step: no series may go down, or a scraper reads a counter reset.
func TestProfilerSeriesMonotone(t *testing.T) {
	s := &Server{prof: newQueryProfiler(0), reg: obs.NewRegistry()}
	s.registerProfilerMetrics()
	scrape := func() map[string]float64 {
		var buf bytes.Buffer
		if err := s.reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "xpush_query_") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("series %q: %v", line, err)
			}
			out[line[:i]] = v
		}
		return out
	}
	canon := func(key uint64) string { return fmt.Sprintf("//q%d", key) }
	climber := uint64(profilerTopK + 1)
	for key := uint64(1); key <= climber; key++ {
		cost := int64(1000)
		if key == climber {
			cost = 1 // the cheapest: ranked below the top K
		}
		s.prof.observeFilter([]uint64{key}, canon, cost, 1)
		s.prof.observeFanout(key, 2)
		s.prof.observeReplay([]uint64{key}, canon)
	}
	exported := func(m map[string]float64) bool {
		_, ok := m[fmt.Sprintf(`xpush_query_matches_total{key="%d",query="//q%d"}`, climber, climber)]
		return ok
	}
	prev := scrape()
	if exported(prev) {
		t.Fatal("the cheapest query is exported before it climbs")
	}
	steps := 0
	for ; steps < 5 && !exported(prev); steps++ {
		// Each step is one more matched document, so the climber leaves
		// more behind below the top K than the query it displaces brings.
		s.prof.observeFilter([]uint64{climber}, canon, 300, 1)
		cur := scrape()
		for series, v := range prev {
			if w, ok := cur[series]; ok && w < v {
				t.Errorf("step %d: %s went down from %v to %v", steps, series, v, w)
			}
		}
		prev = cur
	}
	if !exported(prev) {
		t.Fatal("the climbing query never entered the top K")
	}
	if got, want := prev[`xpush_query_matches_total{key="all"}`], float64(int(climber)+steps); got != want {
		t.Fatalf(`key="all" matches = %v, want %v: every observation`, got, want)
	}
}
