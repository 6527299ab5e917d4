//go:build !race

// The race detector instruments allocations, so the count is only exact
// without it.

package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// TestBatchBufferReused: a committed batch hands its buffer to the next one,
// so an append allocates its batch's bookkeeping and no record buffer, and
// the reused buffer never clobbers a record already in the log. A batch
// buffer over maxKeptBatchBuf is not kept.
func TestBatchBufferReused(t *testing.T) {
	l := openTest(t, Options{})
	doc := bytes.Repeat([]byte("x"), 3000)
	if _, err := l.Append(doc); err != nil {
		t.Fatal(err)
	}
	// The Pending, the batch and its two channels.
	if n := testing.AllocsPerRun(200, func() {
		if _, err := l.Append(doc); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Append allocates %.1f objects, want <= 4", n)
	}
	want := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		d := fmt.Sprintf("<doc n='%d'>%s</doc>", i, bytes.Repeat([]byte("y"), 50*i))
		if _, err := l.Append([]byte(d)); err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	got := readAll(t, l, l.NextOffset()-20)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := l.Append(make([]byte, maxKeptBatchBuf+1)); err != nil {
		t.Fatal(err)
	}
	l.bmu.Lock()
	kept := l.spare
	l.bmu.Unlock()
	if kept != nil {
		t.Fatalf("kept a %d-byte batch buffer, want none over %d", cap(kept), maxKeptBatchBuf)
	}
}
