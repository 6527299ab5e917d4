package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/xpath"
)

// TestFlushWaitsForDocumentInUpgrade replays, step by step on one goroutine,
// the interleaving a scheduler produces only rarely: document A misses and
// gives up its read lock, and before it gets the write lock document B starts
// past the MaxStates cap and gets it first. B must not flush — A still holds
// state ids — and the flush must happen at the first boundary after A.
func TestFlushWaitsForDocumentInUpgrade(t *testing.T) {
	m := New(compileWorkload(t, "//a[b=1 and c=2]"), Options{MaxStates: 2})
	a, b := m.Fork(), m.Fork()

	a.StartDocument()
	a.StartElementBytes([]byte("a"))
	a.StartElementBytes([]byte("b"))
	a.TextBytes([]byte("1"))
	a.EndElementBytes([]byte("b"))
	if _, qb := a.Current(); qb == 0 || len(m.bsets) <= m.opts.MaxStates {
		t.Fatalf("set-up: A at state %d with %d states interned; want a live id and the cap exceeded", qb, len(m.bsets))
	}
	if !a.excl {
		t.Fatal("set-up: A filled tables without the write lock")
	}
	// Put A where upgrade() is between its RUnlock and its Lock.
	a.excl = false
	a.mu.Unlock()

	flushes := m.Stats().Flushes
	got, err := b.FilterDocument([]byte("<a><b>1</b><c>2</c></a>"))
	if err != nil || fmt.Sprint(got) != "[0]" {
		t.Fatalf("B: %v, %v", got, err)
	}
	if f := m.Stats().Flushes; f != flushes {
		t.Fatalf("B flushed (%d -> %d) while A held state ids", flushes, f)
	}

	a.mu.Lock() // A's turn
	a.excl = true
	a.StartElementBytes([]byte("c"))
	a.TextBytes([]byte("2"))
	a.EndElementBytes([]byte("c"))
	a.EndElementBytes([]byte("a"))
	a.EndDocument()
	if fmt.Sprint(a.Results()) != "[0]" {
		t.Fatalf("A resumed on stale state: matches %v", a.Results())
	}

	if _, err := b.FilterDocument([]byte("<a><b>1</b></a>")); err != nil {
		t.Fatal(err)
	}
	if f := m.Stats().Flushes; f != flushes+1 {
		t.Fatalf("idle machine past the cap: %d flushes, want %d", f, flushes+1)
	}
}

// TestSpliceAcrossUpgrade replays a splice that lands while a document is
// between its read lock and the write lock it upgrades to: the document
// resumes on the grown workload, its cursor grows with it, its old filter
// still answers right, and it may report the new filter (whoever drives the
// cursor drops oids it does not hold). The next document sees both.
func TestSpliceAcrossUpgrade(t *testing.T) {
	m := New(compileWorkload(t, "//a[b=1]"), Options{})
	a := m.Fork()
	a.StartDocument()
	a.StartElementBytes([]byte("a"))
	a.StartElementBytes([]byte("b"))
	a.TextBytes([]byte("1"))
	a.EndElementBytes([]byte("b"))
	if !a.excl {
		t.Fatal("set-up: A filled tables without the write lock")
	}
	a.excl = false // A is now inside upgrade(), between RUnlock and Lock
	a.mu.Unlock()

	oid, err := m.Splice([]*xpath.Filter{xpath.MustParse("//a[c=2]")})
	if err != nil || oid != 1 {
		t.Fatalf("Splice: oid %d, err %v", oid, err)
	}

	a.mu.Lock() // A's turn
	a.excl = true
	a.fit()
	a.StartElementBytes([]byte("c"))
	a.TextBytes([]byte("2"))
	a.EndElementBytes([]byte("c"))
	a.EndElementBytes([]byte("a"))
	a.EndDocument()
	if fmt.Sprint(a.Results()) != "[0 1]" || len(a.matched) != 2 {
		t.Fatalf("A across the splice: matches %v over %d marks, want [0 1] over 2", a.Results(), len(a.matched))
	}
	if a.mu.TryLock() {
		a.mu.Unlock()
	} else {
		t.Fatal("the lock outlived the document")
	}
	got, err := m.Fork().FilterDocument([]byte("<a><b>1</b><c>2</c></a>"))
	if err != nil || fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("after the splice: %v, %v", got, err)
	}
}

// TestSpliceNeverWaitsForWriteLock: a splice returns while a document holds
// the write lock, and while one holds the read lock; the filters it queued
// are installed by the next holder of the write lock: the next document to
// start, or a reader's upgrade (which may report them; its caller drops
// oids it does not hold).
func TestSpliceNeverWaitsForWriteLock(t *testing.T) {
	splice := func(m *Machine, q string, want int32) {
		t.Helper()
		type result struct {
			oid int32
			err error
		}
		done := make(chan result, 1)
		go func() {
			oid, err := m.Splice([]*xpath.Filter{xpath.MustParse(q)})
			done <- result{oid, err}
		}()
		select {
		case r := <-done:
			if r.err != nil || r.oid != want {
				t.Fatalf("Splice(%s): oid %d, err %v; want %d", q, r.oid, r.err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Splice(%s) waited for the write lock", q)
		}
	}
	m := New(compileWorkload(t, "//a[b=1]"), Options{})

	a := m.Fork()
	a.StartDocument()
	a.StartElementBytes([]byte("a"))
	a.StartElementBytes([]byte("b"))
	a.TextBytes([]byte("1"))
	a.EndElementBytes([]byte("b"))
	if !a.excl {
		t.Fatal("set-up: A missed no table")
	}
	splice(m, "//a[c=2]", 1)
	if m.NumQueries() != 2 || len(m.afa.Queries) != 1 {
		t.Fatalf("queued splice: %d oids, %d filters installed; want 2, 1", m.NumQueries(), len(m.afa.Queries))
	}
	a.EndElementBytes([]byte("a"))
	a.EndDocument()
	if fmt.Sprint(a.Results()) != "[0]" {
		t.Fatalf("A, which held the write lock through the splice: %v, want [0]", a.Results())
	}
	got, err := m.Fork().FilterDocument([]byte("<a><b>1</b><c>2</c></a>"))
	if err != nil || fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("the next document: %v, %v; want [0 1]", got, err)
	}

	b := m.Fork()
	b.StartDocument() // a read lock: the tables hold this document's rows
	b.StartElementBytes([]byte("a"))
	if b.excl {
		t.Fatal("set-up: B missed a warm table")
	}
	splice(m, "//a[d=3]", 2)
	b.StartElementBytes([]byte("b"))
	b.TextBytes([]byte("7")) // a value no document has shown: B upgrades
	if !b.excl || len(m.afa.Queries) != 3 {
		t.Fatalf("B upgraded (%v) past a queued splice; %d filters installed, want 3", b.excl, len(m.afa.Queries))
	}
	b.EndElementBytes([]byte("b"))
	b.StartElementBytes([]byte("d"))
	b.TextBytes([]byte("3"))
	b.EndElementBytes([]byte("d"))
	b.EndElementBytes([]byte("a"))
	b.EndDocument()
	if r := fmt.Sprint(b.Results()); r != "[]" && r != "[2]" {
		t.Fatalf("B across its upgrade: %v, want [] or [2]", r)
	}
	got, err = m.Fork().FilterDocument([]byte("<a><d>3</d></a>"))
	if err != nil || fmt.Sprint(got) != "[2]" {
		t.Fatalf("the document after B: %v, %v; want [2]", got, err)
	}
}
