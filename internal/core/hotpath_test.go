package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestInsertSorted: the sorted-insertion helper that replaced appendOid's
// append-then-re-sort (which was O(n² log n) across a per-state loop) must
// keep the slice sorted and duplicate-free under any insertion order.
func TestInsertSorted(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var got []int32
		ref := map[int32]bool{}
		for i := 0; i < 50; i++ {
			v := int32(r.Intn(20))
			got = insertSorted(got, v)
			ref[v] = true
		}
		want := make([]int32, 0, len(ref))
		for v := range ref {
			want = append(want, v)
		}
		slices.Sort(want)
		if !equalIDs(got, want) {
			t.Fatalf("insertSorted produced %v, want %v", got, want)
		}
	}
	// Explicit cases: front, back, middle, duplicate.
	s := []int32{10, 20, 30}
	for _, tc := range []struct {
		v    int32
		want string
	}{
		{5, "[5 10 20 30]"},
		{35, "[10 20 30 35]"},
		{25, "[10 20 25 30]"},
		{20, "[10 20 30]"},
	} {
		got := insertSorted(append([]int32(nil), s...), tc.v)
		if fmt.Sprint(got) != tc.want {
			t.Errorf("insertSorted(%v, %d) = %v, want %s", s, tc.v, got, tc.want)
		}
	}
}

// TestWarmRunZeroAllocs is the tentpole regression test: filtering a
// document on a warmed machine (numeric predicates only, no OnDocument
// output) must perform zero heap allocations.
func TestWarmRunZeroAllocs(t *testing.T) {
	doc := []byte(`<a><b> 1 </b><a c="3"><b>1</b></a></a>`)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"basic", Options{PrecomputeValues: true}},
		{"td-early", Options{TopDown: true, Early: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := runningMachine(t, tc.opts)
			// Warm: materialise all states, tables and scratch buffers.
			for i := 0; i < 5; i++ {
				if err := m.Run(doc); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := m.Run(doc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm Run allocates %.1f times per document, want 0", allocs)
			}
			if got := fmt.Sprint(m.Results()); got != "[0 1]" {
				t.Fatalf("matches = %s, want [0 1]", got)
			}
		})
	}
}

// TestWarmFilterDocumentAllocs: FilterDocument returns a fresh copy of the
// match set, so it gets exactly that one allocation per document and no
// more.
func TestWarmFilterDocumentAllocs(t *testing.T) {
	doc := []byte(`<a><b>1</b><a c="3"><b>1</b></a></a>`)
	m := runningMachine(t, Options{PrecomputeValues: true})
	for i := 0; i < 5; i++ {
		if _, err := m.FilterDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.FilterDocument(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("warm FilterDocument allocates %.1f times per document, want <= 1", allocs)
	}
}

// TestTab64MatchesMap drives the flat table and a reference map through an
// identical random operation sequence — the "old map semantics" the table
// replaced — and requires identical observable behaviour, including across
// growth and key collisions (the key space is kept small on purpose).
func TestTab64MatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tab tab64
	ref := map[uint64]int32{}
	for i := 0; i < 50000; i++ {
		key := packPush(int32(r.Intn(200)), int32(r.Intn(40)))
		switch r.Intn(3) {
		case 0:
			val := int32(r.Intn(1 << 20))
			tab.put(key, val)
			ref[key] = val
		default:
			got, ok := tab.get(key)
			want, wok := ref[key]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: get(%#x) = (%d,%v), map says (%d,%v)", i, key, got, ok, want, wok)
			}
		}
	}
	if tab.len() != len(ref) {
		t.Fatalf("table has %d entries, map has %d", tab.len(), len(ref))
	}
	seen := map[uint64]int32{}
	tab.each(func(k uint64, v int32) { seen[k] = v })
	if len(seen) != len(ref) {
		t.Fatalf("each() visited %d entries, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("each() saw %d for %#x, want %d", seen[k], k, v)
		}
		if got, ok := tab.get(k); !ok || got != v {
			t.Fatalf("after growth get(%#x) = (%d,%v), want %d", k, got, ok, v)
		}
	}
	if got, want := tab.memBytes(), int64(16*len(tab.slots)); got != want {
		t.Fatalf("memBytes = %d, want 16 B per slot = %d", got, want)
	}
}

// TestTabEMatchesMap is TestTab64MatchesMap for the two-word-key entry
// table (pop and value transitions).
func TestTabEMatchesMap(t *testing.T) {
	type refKey struct{ lo, hi uint64 }
	r := rand.New(rand.NewSource(2))
	var tab tabE
	ref := map[refKey]entry{}
	randEarly := func() []int32 {
		if r.Intn(4) != 0 {
			return nil
		}
		e := make([]int32, 1+r.Intn(3))
		for i := range e {
			e[i] = int32(r.Intn(100))
		}
		slices.Sort(e)
		return dedupSorted(e)
	}
	for i := 0; i < 50000; i++ {
		var key key128
		if r.Intn(2) == 0 {
			key = packPop(int32(r.Intn(100)), int32(r.Intn(20)), int32(r.Intn(30)))
		} else {
			key = packValue(int32(r.Intn(20)), int64(r.Intn(50))<<32|int64(r.Intn(8)))
		}
		rk := refKey{key.lo, key.hi}
		switch r.Intn(4) {
		case 0:
			e := entry{state: int32(r.Intn(1 << 20)), early: randEarly()}
			tab.put(key, e)
			ref[rk] = e
		case 1:
			if i%3 == 0 { // fewer deletes than puts: the table still grows
				tab.del(key)
				delete(ref, rk)
			}
		default:
			got, ok := tab.get(key)
			want, wok := ref[rk]
			if ok != wok || (ok && got.state != want.state) || (ok && !equalIDs(got.early, want.early)) {
				t.Fatalf("op %d: get = (%v,%v), map says (%v,%v)", i, got, ok, want, wok)
			}
		}
	}
	if tab.len() != len(ref) {
		t.Fatalf("table has %d entries, map has %d", tab.len(), len(ref))
	}
	n := 0
	tab.each(func(k key128, e entry) {
		n++
		want := ref[refKey{k.lo, k.hi}]
		if e.state != want.state || !equalIDs(e.early, want.early) {
			t.Fatalf("each() saw %v, want %v", e, want)
		}
	})
	if n != len(ref) {
		t.Fatalf("each() visited %d entries, want %d", n, len(ref))
	}
}

// TestTabEEarlyListsSurviveGrowth: the early lists live outside the slots, so
// doubling the table rehashes 24-byte records and leaves every list where it
// was, still reachable from its key.
func TestTabEEarlyListsSurviveGrowth(t *testing.T) {
	var tab tabE
	const withEarly = 10
	for i := int32(0); i < withEarly; i++ {
		tab.put(packPop(i, 1, 2), entry{state: i, early: []int32{i, i + 100}})
	}
	slots, lists := len(tab.slots), len(tab.lists)
	for i := int32(0); i < 5000; i++ {
		tab.put(packValue(i, int64(i)<<32|7), entry{state: -i})
	}
	if len(tab.slots) <= slots {
		t.Fatalf("table did not grow: %d slots", len(tab.slots))
	}
	if len(tab.lists) != lists {
		t.Fatalf("growth moved the early lists: %d lists, had %d", len(tab.lists), lists)
	}
	for i := int32(0); i < withEarly; i++ {
		e, ok := tab.get(packPop(i, 1, 2))
		if !ok || e.state != i || !equalIDs(e.early, []int32{i, i + 100}) {
			t.Fatalf("after growth get(%d) = (%v,%v)", i, e, ok)
		}
	}
	if e, ok := tab.get(packValue(4999, int64(4999)<<32|7)); !ok || e.state != -4999 || e.early != nil {
		t.Fatalf("entry without early oids = (%v,%v)", e, ok)
	}
	want := int64(24*len(tab.slots)) + 24 + withEarly*(24+2*4) // lists[0] is the "none" placeholder
	if got := tab.memBytes(); got != want {
		t.Fatalf("memBytes = %d, want 24 B per slot + the lists = %d", got, want)
	}
}

// TestInternTabMatchesMap replays the hash-cons interning protocol (the old
// map[uint64][]int32 index) against internTab: equal sets get equal ids,
// distinct sets get distinct ids, including under signature collisions.
func TestInternTabMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var tab internTab
	var sets [][]int32
	intern := func(set []int32) int32 {
		h := hashIDs(set)
		if id := tab.lookup(h, func(id int32) bool { return equalIDs(sets[id], set) }); id >= 0 {
			return id
		}
		id := int32(len(sets))
		sets = append(sets, append([]int32(nil), set...))
		tab.add(h, id)
		return id
	}
	ref := map[string]int32{}
	for i := 0; i < 20000; i++ {
		set := make([]int32, r.Intn(6))
		for j := range set {
			set[j] = int32(r.Intn(30))
		}
		slices.Sort(set)
		set = dedupSorted(set)
		if len(set) == 0 {
			continue
		}
		id := intern(set)
		key := fmt.Sprint(set)
		if want, ok := ref[key]; ok {
			if id != want {
				t.Fatalf("set %v interned as %d, previously %d", set, id, want)
			}
		} else {
			ref[key] = id
		}
	}
	if len(ref) != len(sets) {
		t.Fatalf("interned %d distinct sets, reference says %d", len(sets), len(ref))
	}
}

// TestInternTabSignatureCollision: two different sets sharing a signature
// must still intern to different ids (probing continues past non-matching
// entries with equal signatures).
func TestInternTabSignatureCollision(t *testing.T) {
	a := []int32{1, 2}
	b := []int32{3, 4}
	sets := [][]int32{a, b}
	var tab internTab
	sig := uint64(0x1234) // force a shared signature
	tab.add(sig, 0)
	tab.add(sig, 1)
	if id := tab.lookup(sig, func(id int32) bool { return equalIDs(sets[id], a) }); id != 0 {
		t.Fatalf("lookup(a) = %d, want 0", id)
	}
	if id := tab.lookup(sig, func(id int32) bool { return equalIDs(sets[id], b) }); id != 1 {
		t.Fatalf("lookup(b) = %d, want 1", id)
	}
	if id := tab.lookup(sig, func(id int32) bool { return false }); id != -1 {
		t.Fatalf("lookup(absent) = %d, want -1", id)
	}
}
