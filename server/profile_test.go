package server

import (
	"testing"

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
