package server

import (
	"slices"
	"sync"
	"testing"
)

// TestJournalRing walks the four lookup outcomes and the put ordering rule
// on an 8-slot ring that booted at offset 100.
func TestJournalRing(t *testing.T) {
	j := newJournal(8, 100)
	look := func(off, needHW uint64) ([]uint64, journalState) {
		return j.get(off, needHW, nil)
	}

	if _, st := look(99, 0); st != journalPreboot {
		t.Fatalf("offset below boot: state %d, want preboot", st)
	}
	if _, st := look(100, 0); st != journalNotYet {
		t.Fatalf("empty slot: state %d, want not-yet", st)
	}

	j.put(100, 5, []uint64{1, 3})
	if keys, st := look(100, 5); st != journalHit || !slices.Equal(keys, []uint64{1, 3}) {
		t.Fatalf("hit: keys %v state %d", keys, st)
	}
	if _, st := look(100, 6); st != journalNewFilter {
		t.Fatalf("reader with a key at 5: state %d, want new-filter", st)
	}
	// An entry with no keys is a hit too: the document matched nothing.
	j.put(101, 5, nil)
	if keys, st := look(101, 0); st != journalHit || len(keys) != 0 {
		t.Fatalf("empty entry: keys %v state %d", keys, st)
	}
	// The returned keys are the caller's copy, not the slot's reused slice.
	keys, _ := look(100, 0)
	j.put(108, 5, []uint64{9, 9}) // same slot as 100
	if !slices.Equal(keys, []uint64{1, 3}) {
		t.Fatalf("keys of a hit changed under a later put: %v", keys)
	}

	// 108 lapped 100; 116 has the slot but is not journaled yet.
	if _, st := look(100, 0); st != journalLapped {
		t.Fatalf("lapped offset: state %d, want lapped", st)
	}
	if _, st := look(116, 0); st != journalNotYet {
		t.Fatalf("offset ahead of its slot: state %d, want not-yet", st)
	}
	// A stale put (a slow publish worker) never overwrites a newer slot.
	j.put(100, 7, []uint64{4})
	if keys, st := look(108, 0); st != journalHit || !slices.Equal(keys, []uint64{9, 9}) {
		t.Fatalf("after a stale put: keys %v state %d", keys, st)
	}

	// A nil journal (a broker without a WAL) swallows puts.
	var none *journal
	none.put(1, 1, []uint64{1})
}

// TestJournalConcurrentPuts: publish workers journal out of order and
// concurrently with readers; every offset of the newest lap ends up holding
// exactly its own keys. Run under -race.
func TestJournalConcurrentPuts(t *testing.T) {
	const slots, laps, workers = 64, 8, 8
	j := newJournal(slots, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []uint64
			// Worker w owns the offsets congruent to w, newest lap first for
			// the odd workers, so stale and fresh puts interleave per slot.
			for i := 0; i < slots*laps/workers; i++ {
				n := i
				if w%2 == 1 {
					n = slots*laps/workers - 1 - i
				}
				off := uint64(n*workers + w)
				j.put(off, off+1, []uint64{off, off * 2})
				var st journalState
				if dst, st = j.get(off, 0, dst); st == journalHit && (dst[0] != off || dst[1] != off*2) {
					t.Errorf("offset %d read back keys %v", off, dst)
				}
			}
		}(w)
	}
	wg.Wait()
	for off := uint64(slots * (laps - 1)); off < slots*laps; off++ {
		keys, st := j.get(off, off+1, nil)
		if st != journalHit || !slices.Equal(keys, []uint64{off, off * 2}) {
			t.Fatalf("offset %d: keys %v state %d, want its own keys", off, keys, st)
		}
	}
	for off := uint64(0); off < slots*(laps-1); off++ {
		if _, st := j.get(off, 0, nil); st != journalLapped {
			t.Fatalf("offset %d of an older lap: state %d, want lapped", off, st)
		}
	}
}
