package core

import (
	"fmt"
	"testing"
)

// TestFlushWaitsForDocumentInUpgrade replays, step by step on one goroutine,
// the interleaving a scheduler produces only rarely: document A misses and
// gives up its read lock, and before it gets the write lock document B starts
// past the MaxStates cap and gets it first. B must not flush — A still holds
// state ids — and the flush must happen at the first boundary after A.
func TestFlushWaitsForDocumentInUpgrade(t *testing.T) {
	m := New(compileWorkload(t, "//a[b=1 and c=2]"), Options{MaxStates: 2})
	a, b := ForkStack([]*Machine{m})[0], ForkStack([]*Machine{m})[0]

	a.StartDocument()
	a.StartElementBytes([]byte("a"))
	a.StartElementBytes([]byte("b"))
	a.TextBytes([]byte("1"))
	a.EndElementBytes([]byte("b"))
	if _, qb := a.Current(); qb == 0 || len(m.bsets) <= m.opts.MaxStates {
		t.Fatalf("set-up: A at state %d with %d states interned; want a live id and the cap exceeded", qb, len(m.bsets))
	}
	if !a.st.excl {
		t.Fatal("set-up: A filled tables without the write lock")
	}
	// Put A where upgrade() is between its RUnlock and its Lock.
	a.st.excl = false
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
	a.st.excl = true
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

// TestStackSharesOneLock: the cursors ForkStack makes for a base and a layer
// stacked on it take the base's lock once per document, whichever layer
// misses, and give it back when the last of them leaves the document.
func TestStackSharesOneLock(t *testing.T) {
	base := New(compileWorkload(t, "//a[b=1]"), Options{})
	tail := New(compileWorkload(t, "//a[c=2]"), Options{})
	tail.StackOn(base)
	cur := ForkStack([]*Machine{base, tail})
	each := func(f func(m *Machine)) {
		for _, m := range cur {
			f(m)
		}
	}
	each((*Machine).StartDocument)
	each(func(m *Machine) { m.StartElementBytes([]byte("a")) })
	each(func(m *Machine) { m.StartElementBytes([]byte("c")) })
	each(func(m *Machine) { m.TextBytes([]byte("2")) })
	if st := cur[0].st; st != cur[1].st || st.in != 2 || !st.excl {
		t.Fatalf("mid-document: stream %+v, shared %v; want both cursors in, write lock held", st, cur[0].st == cur[1].st)
	}
	each(func(m *Machine) { m.EndElementBytes([]byte("c")) })
	each(func(m *Machine) { m.EndElementBytes([]byte("a")) })
	cur[0].EndDocument()
	if base.mu.TryLock() {
		t.Fatal("the lock was dropped with the tail cursor still inside the document")
	}
	cur[1].EndDocument()
	if !base.mu.TryLock() {
		t.Fatal("the lock outlived the document")
	}
	base.mu.Unlock()
	if fmt.Sprint(cur[0].Results(), cur[1].Results()) != "[] [0]" {
		t.Fatalf("matches %v %v", cur[0].Results(), cur[1].Results())
	}
	if base.Stats().ExclusiveDocs+tail.Stats().ExclusiveDocs != 1 {
		t.Fatalf("one document went exclusive, counted %d + %d times", base.Stats().ExclusiveDocs, tail.Stats().ExclusiveDocs)
	}
}
