package wal

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// countingFile counts the ReadAt calls a Reader makes on its segment files.
type countingFile struct {
	*os.File
	reads *int
}

func (f countingFile) ReadAt(b []byte, off int64) (int, error) {
	*f.reads++
	return f.File.ReadAt(b, off)
}

// TestReaderOneReadPerRecord: a record no longer than the read-ahead is read
// with its header in one ReadAt, a longer one in two, and neither read
// disturbs the next record. The sizes run shorter than, equal to and longer
// than the read-ahead, and the small segments rotate under them.
func TestReaderOneReadPerRecord(t *testing.T) {
	reads := 0
	prev := wrapReadFile
	wrapReadFile = func(f *os.File) readFile { return countingFile{f, &reads} }
	t.Cleanup(func() { wrapReadFile = prev })

	l := openTest(t, Options{SegmentBytes: 700})
	sizes := []int{100, 100, 40, 40, 300, 1, 299, 300, 301, 64, 64, 500, 2, 2, 250, maxReadAhead + 1, maxReadAhead + 1, 3}
	docs := make([][]byte, len(sizes))
	for i, n := range sizes {
		docs[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
		if _, err := l.Append(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("want the records spread over several segments, got %+v", l.Stats())
	}
	r, err := l.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ahead, seg := 0, uint64(1<<63)
	var shorter, equal, longer int
	for i, want := range docs {
		reads = 0
		off, doc, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if off != uint64(i) || !bytes.Equal(doc, want) {
			t.Fatalf("record %d: offset %d, %d bytes; want %d bytes", i, off, len(doc), len(want))
		}
		wantReads := 1
		switch {
		case len(want) > ahead:
			wantReads++ // the remainder past the read-ahead
			longer++
		case len(want) == ahead:
			equal++
		default:
			shorter++
		}
		if r.segBase != seg {
			wantReads++ // the new segment's header
			seg = r.segBase
		}
		if reads != wantReads {
			t.Fatalf("record %d (%d bytes, read-ahead %d): %d reads, want %d", i, len(want), ahead, reads, wantReads)
		}
		ahead = readAhead(ahead, len(want))
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next at tail = %v, want io.EOF", err)
	}
	if shorter == 0 || equal == 0 || longer == 0 {
		t.Fatalf("records shorter than, equal to, longer than the read-ahead: %d, %d, %d; want each", shorter, equal, longer)
	}
}
