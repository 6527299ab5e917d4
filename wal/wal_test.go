package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openTest(t *testing.T, opt Options) *Log {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	if opt.Fsync == "" {
		opt.Fsync = FsyncNever
	}
	l, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("<doc n='%d'/>", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func readAll(t *testing.T, l *Log, from uint64) []string {
	t.Helper()
	r, err := l.OpenReader(from)
	if err != nil {
		t.Fatalf("OpenReader(%d): %v", from, err)
	}
	defer r.Close()
	var out []string
	want := from
	for {
		off, doc, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next at offset %d: %v", want, err)
		}
		if off != want {
			t.Fatalf("offset = %d, want %d", off, want)
		}
		out = append(out, string(doc))
		want++
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	l := openTest(t, Options{})
	appendN(t, l, 10)
	docs := readAll(t, l, 0)
	if len(docs) != 10 {
		t.Fatalf("read %d docs, want 10", len(docs))
	}
	for i, d := range docs {
		if want := fmt.Sprintf("<doc n='%d'/>", i); d != want {
			t.Fatalf("doc %d = %q, want %q", i, d, want)
		}
	}
	if got := readAll(t, l, 7); len(got) != 3 || got[0] != "<doc n='7'/>" {
		t.Fatalf("read from 7 = %v", got)
	}
	if l.NextOffset() != 10 || l.FirstOffset() != 0 {
		t.Fatalf("offsets = [%d, %d), want [0, 10)", l.FirstOffset(), l.NextOffset())
	}
}

func TestAppendRejectsEmptyAndOversized(t *testing.T) {
	l := openTest(t, Options{MaxRecordBytes: 16})
	if _, err := l.Append(nil); err == nil {
		t.Fatal("Append(nil) succeeded")
	}
	if _, err := l.Append(bytes.Repeat([]byte("x"), 17)); err == nil {
		t.Fatal("oversized Append succeeded")
	}
	if st := l.Stats(); st.NextOffset != 0 {
		t.Fatalf("rejected appends assigned offsets: %+v", st)
	}
}

func TestReopenContinuesOffsets(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir})
	appendN(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := openTest(t, Options{Dir: dir})
	if l2.NextOffset() != 5 {
		t.Fatalf("NextOffset after reopen = %d, want 5", l2.NextOffset())
	}
	appendN(t, l2, 5)
	if got := readAll(t, l2, 0); len(got) != 10 {
		t.Fatalf("read %d docs after reopen, want 10", len(got))
	}
}

// TestRecoveryTruncatesTornTail simulates crashes mid-append by corrupting
// the tail of a closed log, then checks Open keeps exactly the valid prefix.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	cases := []struct {
		name string
		tail []byte // appended raw to the segment file
	}{
		{"partial header", []byte{0x00, 0x00, 0x01}},
		{"zero filled", make([]byte, 64)},
		{"length without payload", []byte{0x00, 0x00, 0x00, 0x40, 0xde, 0xad, 0xbe, 0xef}},
		{"bad crc", func() []byte {
			b := []byte{0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 'x', 'y', 'z'}
			return b
		}()},
		{"implausible length", []byte{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openTest(t, Options{Dir: dir})
			appendN(t, l, 4)
			l.Close()

			seg := filepath.Join(dir, fmt.Sprintf("%016x%s", 0, segSuffix))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatalf("opening segment: %v", err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatalf("writing torn tail: %v", err)
			}
			f.Close()

			if v, err := Verify(dir); err != nil || !v.Torn {
				t.Fatalf("Verify = %+v, %v; want Torn", v, err)
			}
			l2 := openTest(t, Options{Dir: dir})
			if l2.NextOffset() != 4 {
				t.Fatalf("NextOffset after recovery = %d, want 4", l2.NextOffset())
			}
			if got := readAll(t, l2, 0); len(got) != 4 {
				t.Fatalf("read %d docs after recovery, want 4", len(got))
			}
			// The log must be appendable again and verify clean.
			appendN(t, l2, 1)
			l2.Close()
			if v, err := Verify(dir); err != nil || v.Torn || v.Records != 5 {
				t.Fatalf("Verify after recovery+append = %+v, %v; want 5 clean records", v, err)
			}
		})
	}
}

func TestRecoveryDropsUnreachableSegments(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, SegmentBytes: 64})
	appendN(t, l, 10) // several segments at 64-byte rotation
	if l.Stats().Segments < 3 {
		t.Fatalf("want >= 3 segments, got %d", l.Stats().Segments)
	}
	l.Close()

	// Corrupt the header of the second segment: everything from it on is
	// unreachable and must be deleted, keeping only segment 0's records.
	entries, _ := os.ReadDir(dir)
	if err := os.WriteFile(filepath.Join(dir, entries[1].Name()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openTest(t, Options{Dir: dir})
	st := l2.Stats()
	if st.Segments != 1 || st.FirstOffset != 0 {
		t.Fatalf("after recovery: %+v, want 1 segment from offset 0", st)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("unreachable segments not deleted: %d files remain", len(files))
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, SegmentBytes: 128, RetentionBytes: 256})
	// A reader that has read records retention then deletes.
	live, err := l.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	appendN(t, l, 2)
	for i := 0; i < 2; i++ {
		if _, _, err := live.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	appendN(t, l, 38)
	st := l.Stats()
	if st.Rotations == 0 || st.RetiredSegments == 0 {
		t.Fatalf("expected rotation and retention, got %+v", st)
	}
	if st.FirstOffset == 0 {
		t.Fatal("retention did not advance FirstOffset")
	}
	// Reading below the retained range must fail with ErrTruncated, from a
	// fresh reader or a live one...
	if _, _, err := live.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Next past retention from a live reader = %v, want ErrTruncated", err)
	}
	r, err := l.OpenReader(0)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	if _, _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Next below retention = %v, want ErrTruncated", err)
	}
	r.Close()
	// ...and restarting from FirstOffset reads through to the tail.
	docs := readAll(t, l, st.FirstOffset)
	if uint64(len(docs)) != st.NextOffset-st.FirstOffset {
		t.Fatalf("read %d docs, want %d", len(docs), st.NextOffset-st.FirstOffset)
	}
}

// TestRotationRetriesAfterCreateFailure: a rotation that seals the active
// segment but fails to create the next one (transient disk trouble) must not
// wedge the log — the retried rotation skips the already-sealed file and goes
// straight to segment creation once the condition clears.
func TestRotationRetriesAfterCreateFailure(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, SegmentBytes: 64})
	// Overfill the active segment so the next append must rotate first.
	for {
		l.mu.Lock()
		full := l.segs[len(l.segs)-1].size >= 64
		l.mu.Unlock()
		if full {
			break
		}
		appendN(t, l, 1)
	}
	want := l.NextOffset()
	// Make createSegment fail by pointing the log at a missing directory.
	l.mu.Lock()
	l.opt.Dir = filepath.Join(dir, "missing")
	l.mu.Unlock()
	if _, err := l.Append([]byte("<doc/>")); err == nil {
		t.Fatal("append rotated into a missing directory")
	}
	// While the condition persists every append keeps failing cleanly...
	if _, err := l.Append([]byte("<doc/>")); err == nil {
		t.Fatal("append succeeded with the directory still missing")
	}
	// ...and once it clears the log recovers without a restart.
	l.mu.Lock()
	l.opt.Dir = dir
	l.mu.Unlock()
	off, err := l.Append([]byte("<doc/>"))
	if err != nil {
		t.Fatalf("append after the directory came back: %v", err)
	}
	if off != want {
		t.Fatalf("offset = %d, want %d", off, want)
	}
	if got := readAll(t, l, 0); uint64(len(got)) != want+1 {
		t.Fatalf("read %d docs, want %d", len(got), want+1)
	}
}

// TestRetentionAgeUsesLastAppendTime: RetentionAge measures the newest
// record's age, so a segment is kept while it is written to and deleted once
// its newest record is older than the window.
func TestRetentionAgeUsesLastAppendTime(t *testing.T) {
	l := openTest(t, Options{SegmentBytes: 64, RetentionAge: time.Hour})
	appendN(t, l, 1)
	for l.Stats().Rotations == 0 {
		appendN(t, l, 1)
	}
	// Segment 0 was written to just now: the rotation's retention pass must
	// keep it.
	if first := l.FirstOffset(); first != 0 {
		t.Fatalf("recently-written segment deleted: FirstOffset = %d", first)
	}
	// Once its newest record is older than the window, it is deleted.
	l.mu.Lock()
	l.segs[0].lastAppend = time.Now().Add(-2 * time.Hour)
	base := l.segs[1].base
	rot := l.rotations
	l.mu.Unlock()
	for l.Stats().Rotations == rot {
		appendN(t, l, 1)
	}
	if first := l.FirstOffset(); first != base {
		t.Fatalf("FirstOffset = %d after aged-out segment, want %d", first, base)
	}
}

// TestReaderFollowsLiveTail interleaves appends with reads through a single
// reader, crossing segment boundaries.
func TestReaderFollowsLiveTail(t *testing.T) {
	l := openTest(t, Options{SegmentBytes: 64})
	r, err := l.OpenReader(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty log = %v, want io.EOF", err)
	}
	var want uint64
	for round := 0; round < 5; round++ {
		appendN(t, l, 3)
		for i := 0; i < 3; i++ {
			off, doc, err := r.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if off != want || len(doc) == 0 {
				t.Fatalf("off = %d, want %d", off, want)
			}
			want++
		}
		if _, _, err := r.Next(); err != io.EOF {
			t.Fatalf("Next at tail = %v, want io.EOF", err)
		}
	}
}

func TestCursorStore(t *testing.T) {
	cs, err := OpenCursorStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cs.Load("sub-1"); ok || err != nil {
		t.Fatalf("Load of absent cursor = ok=%v err=%v", ok, err)
	}
	for _, off := range []uint64{0, 7, 1 << 40} {
		if err := cs.Store("sub-1", off); err != nil {
			t.Fatalf("Store(%d): %v", off, err)
		}
		got, ok, err := cs.Load("sub-1")
		if err != nil || !ok || got != off {
			t.Fatalf("Load = %d, %v, %v; want %d", got, ok, err, off)
		}
	}
	if names, err := cs.Names(); err != nil || len(names) != 1 || names[0] != "sub-1" {
		t.Fatalf("Names = %v, %v", names, err)
	}
	for _, bad := range []string{"", ".hidden", "-x", "a/b", "a b", string(bytes.Repeat([]byte("n"), 129))} {
		if ValidCursorName(bad) {
			t.Errorf("ValidCursorName(%q) = true", bad)
		}
		if err := cs.Store(bad, 1); err == nil {
			t.Errorf("Store(%q) succeeded", bad)
		}
	}
	// A corrupt cursor file is an error, not silently zero.
	if err := os.WriteFile(filepath.Join(cs.dir, "bad.cur"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Load("bad"); err == nil {
		t.Fatal("Load of corrupt cursor succeeded")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"": FsyncInterval, "always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever,
	} {
		if got, err := ParseFsyncPolicy(s); err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted an unknown policy")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(string(pol), func(t *testing.T) {
			l := openTest(t, Options{Fsync: pol, FsyncEvery: 5 * time.Millisecond})
			appendN(t, l, 5)
			if pol == FsyncAlways && l.Stats().Syncs < 5 {
				t.Fatalf("always: %d syncs for 5 appends", l.Stats().Syncs)
			}
			if pol == FsyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for l.Stats().Syncs == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if l.Stats().Syncs == 0 {
					t.Fatal("interval: no sync observed")
				}
				if l.FsyncLatency().Count == 0 {
					t.Fatal("interval: fsync latency histogram empty")
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Append after Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestVerifyCleanLog(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, Options{Dir: dir, SegmentBytes: 128})
	appendN(t, l, 20)
	l.Close()
	v, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v.Torn || v.Records != 20 || v.FirstOffset != 0 || v.NextOffset != 20 {
		t.Fatalf("Verify = %+v", v)
	}
}
