//go:build !race

// The race detector makes sync.Pool drop some of what it is given, so the
// allocation count is only exact without it.

package trace

import (
	"testing"
	"time"
)

// TestKeptTracesRecycled: once both rings are full, every new kept trace
// pushes an old one out, and the old one is reused for the next document, so
// tracing every document allocates nothing.
func TestKeptTracesRecycled(t *testing.T) {
	r := New(1, time.Nanosecond) // every document sampled and slow
	doc := func() {
		tc := r.Begin("document")
		sp := tc.StartSpan("filter", Root)
		tc.SetAttr(sp, "matches", 1)
		tc.EndSpan(sp)
		tc.Finish()
	}
	for i := 0; i < ringSize+slowRingSize; i++ {
		doc()
	}
	if allocs := testing.AllocsPerRun(1000, doc); allocs != 0 {
		t.Fatalf("tracing a document with the rings full allocated %.2f times, want 0", allocs)
	}
	if n := len(r.Traces()); n != ringSize {
		t.Fatalf("sampled ring holds %d traces, want %d", n, ringSize)
	}
}
