// Flat open-addressing hash tables for the lazily filled transition
// functions. The built-in map costs a hash-function call through an
// interface, bucket chasing and (for the intern indexes) a slice-of-slices
// allocation per entry; these tables are linear-probed arrays over packed
// integer keys, so a warm-path lookup is one multiply-shift hash plus a few
// contiguous compares, with zero allocation.
//
// All transition-table key components are non-negative int32 state/symbol
// ids, so a packed key never has the top bit of either half set and
// ^uint64(0) can serve as the empty-slot marker.

package core

// mix64 is the splitmix64 finalizer: a cheap full-avalanche hash for packed
// integer keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	emptyKey64  = ^uint64(0)
	tabMinSlots = 16
)

// packPush packs a (top-down state, symbol) pair for the push table.
func packPush(qt, sym int32) uint64 {
	return uint64(uint32(qt))<<32 | uint64(uint32(sym))
}

// packAdd packs a (state, state) pair for the add and intersect tables.
func packAdd(qbs, qaux int32) uint64 {
	return uint64(uint32(qbs))<<32 | uint64(uint32(qaux))
}

// tab64 maps a packed uint64 key to an int32 state id. Key and value share
// one 16-byte slot, so a probe reads one cache line.
type tab64 struct {
	slots []slot64
	n     int
}

type slot64 struct {
	key uint64
	val int32
}

func (t *tab64) init(n int) {
	t.slots = make([]slot64, n)
	t.n = 0
	for i := range t.slots {
		t.slots[i].key = emptyKey64
	}
}

func (t *tab64) get(key uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := mix64(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s.val, true
		}
		if s.key == emptyKey64 {
			return 0, false
		}
	}
}

func (t *tab64) put(key uint64, val int32) {
	if len(t.slots) == 0 {
		t.init(tabMinSlots)
	} else if (t.n+1)*4 > len(t.slots)*3 {
		old := t.slots
		t.init(len(old) * 2)
		for _, s := range old {
			if s.key != emptyKey64 {
				t.set(s.key, s.val)
			}
		}
	}
	t.set(key, val)
}

// set inserts or overwrites without growth checks.
func (t *tab64) set(key uint64, val int32) {
	mask := uint64(len(t.slots) - 1)
	for i := mix64(key) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			s.val = val
			return
		}
		if s.key == emptyKey64 {
			*s = slot64{key: key, val: val}
			t.n++
			return
		}
	}
}

// each visits all entries in unspecified order.
func (t *tab64) each(f func(key uint64, val int32)) {
	for _, s := range t.slots {
		if s.key != emptyKey64 {
			f(s.key, s.val)
		}
	}
}

func (t *tab64) len() int { return t.n }

// deleteIf removes the entries drop selects, rehashing the rest in place of
// tombstones.
func (t *tab64) deleteIf(drop func(key uint64, val int32) bool) {
	old, n := t.slots, 0
	for _, s := range old {
		if s.key != emptyKey64 && drop(s.key, s.val) {
			n++
		}
	}
	if n == 0 {
		return
	}
	t.init(len(old))
	for _, s := range old {
		if s.key != emptyKey64 && !drop(s.key, s.val) {
			t.set(s.key, s.val)
		}
	}
}

func (t *tab64) memBytes() int64 { return int64(len(t.slots)) * 16 }

// key128 is a two-word key for the transitions whose inputs exceed 64 bits
// (pop: two states + symbol; value: state + interval id). lo is never
// ^uint64(0) for a real key, which marks empty slots.
type key128 struct{ lo, hi uint64 }

// packPop packs (bottom-up state, top-down state, symbol) for the pop table.
func packPop(qb, qt, sym int32) key128 {
	return key128{lo: uint64(uint32(qb))<<32 | uint64(uint32(qt)), hi: uint64(uint32(sym))}
}

// packValue packs (top-down state, predicate-index interval id) for the
// value table. IntervalKey is always non-negative.
func packValue(qt int32, interval int64) key128 {
	return key128{lo: uint64(uint32(qt)), hi: uint64(interval)}
}

func (k key128) hash() uint64 { return mix64(k.lo ^ mix64(k.hi)) }

// tabE maps a key128 to an entry (resulting state + early-fired filter
// oids). Key and state share one 24-byte slot; the early lists, empty on
// almost every transition, live out of line in lists and the slot holds an
// index into it, so growth moves slots and never a list.
type tabE struct {
	slots []slotE
	lists [][]int32 // lists[0] is unused: index 0 means no early oids
	n     int
}

type slotE struct {
	key   key128
	state int32
	early int32 // index into lists; 0 = none
}

func (t *tabE) init(n int) {
	t.slots = make([]slotE, n)
	t.n = 0
	for i := range t.slots {
		t.slots[i].key.lo = emptyKey64
	}
}

func (t *tabE) entry(s *slotE) entry {
	e := entry{state: s.state}
	if s.early != 0 {
		e.early = t.lists[s.early]
	}
	return e
}

func (t *tabE) get(key key128) (entry, bool) {
	if t.n == 0 {
		return entry{}, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := key.hash() & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return t.entry(s), true
		}
		if s.key.lo == emptyKey64 {
			return entry{}, false
		}
	}
}

func (t *tabE) put(key key128, e entry) {
	if len(t.slots) == 0 {
		t.init(tabMinSlots)
	} else if (t.n+1)*4 > len(t.slots)*3 {
		old := t.slots
		t.init(len(old) * 2)
		for _, s := range old {
			if s.key.lo != emptyKey64 {
				*t.slot(s.key) = s
			}
		}
	}
	s := t.slot(key)
	s.key, s.state, s.early = key, e.state, 0
	if len(e.early) > 0 {
		if len(t.lists) == 0 {
			t.lists = append(t.lists, nil)
		}
		s.early = int32(len(t.lists))
		t.lists = append(t.lists, e.early)
	}
}

// slot returns the slot holding key, claiming an empty one (and counting
// it) when the key is new; the caller fills it in. There is always room.
func (t *tabE) slot(key key128) *slotE {
	mask := uint64(len(t.slots) - 1)
	for i := key.hash() & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s
		}
		if s.key.lo == emptyKey64 {
			t.n++
			return s
		}
	}
}

func (t *tabE) each(f func(key key128, e entry)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.key.lo != emptyKey64 {
			f(s.key, t.entry(s))
		}
	}
}

func (t *tabE) len() int { return t.n }

// del removes key, if present, without a tombstone: the entries after it in
// its probe run that may sit in its slot move back (Knuth's Algorithm R for
// linear probing). The early list of the entry stays behind until the table
// is reset.
func (t *tabE) del(key key128) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.slots) - 1)
	i := key.hash() & mask
	for ; t.slots[i].key != key; i = (i + 1) & mask {
		if t.slots[i].key.lo == emptyKey64 {
			return
		}
	}
	for j := i; ; {
		j = (j + 1) & mask
		s := t.slots[j]
		if s.key.lo == emptyKey64 {
			break
		}
		// The entry at j may fill the hole at i unless its home slot lies
		// cyclically in (i, j].
		home := s.key.hash() & mask
		stays := i < home && home <= j
		if j < i {
			stays = home > i || home <= j
		}
		if !stays {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i].key.lo = emptyKey64
	t.n--
}

// deleteIf removes the entries drop selects, rehashing the rest; the early
// lists of the dropped ones stay behind until the table is reset.
func (t *tabE) deleteIf(drop func(key key128) bool) {
	old, n := t.slots, 0
	for i := range old {
		if old[i].key.lo != emptyKey64 && drop(old[i].key) {
			n++
		}
	}
	if n == 0 {
		return
	}
	t.init(len(old))
	for _, s := range old {
		if s.key.lo != emptyKey64 && !drop(s.key) {
			*t.slot(s.key) = s
		}
	}
}

func (t *tabE) memBytes() int64 {
	b := int64(len(t.slots)) * 24 // 16B key + 4B state + 4B list index
	for _, e := range t.lists {
		b += 24 + 4*int64(len(e)) // slice header + oids
	}
	return b
}

// internTab is the hash-cons index for interned state sets: it maps a 64-bit
// set signature to candidate set ids. Signatures may collide, so linear
// probing keeps walking past entries whose signature matches but whose set
// (checked via eq) does not.
type internTab struct {
	sigs []uint64
	ids  []int32
	n    int
}

func (t *internTab) init(n int) {
	t.sigs = make([]uint64, n)
	t.ids = make([]int32, n)
	t.n = 0
	for i := range t.ids {
		t.ids[i] = -1
	}
}

// lookup returns the id of the set with this signature for which eq holds,
// or -1. Empty slots are marked by id -1 (signatures carry no reserved
// value).
func (t *internTab) lookup(sig uint64, eq func(id int32) bool) int32 {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.sigs) - 1)
	for i := mix64(sig) & mask; ; i = (i + 1) & mask {
		id := t.ids[i]
		if id < 0 {
			return -1
		}
		if t.sigs[i] == sig && eq(id) {
			return id
		}
	}
}

// add inserts a (signature, id) pair; the caller has already checked the id
// is absent.
func (t *internTab) add(sig uint64, id int32) {
	if len(t.sigs) == 0 {
		t.init(tabMinSlots)
	} else if (t.n+1)*4 > len(t.sigs)*3 {
		old := *t
		t.init(len(t.sigs) * 2)
		for i, oid := range old.ids {
			if oid >= 0 {
				t.set(old.sigs[i], oid)
			}
		}
	}
	t.set(sig, id)
}

func (t *internTab) set(sig uint64, id int32) {
	mask := uint64(len(t.sigs) - 1)
	for i := mix64(sig) & mask; ; i = (i + 1) & mask {
		if t.ids[i] < 0 {
			t.sigs[i] = sig
			t.ids[i] = id
			t.n++
			return
		}
	}
}

func (t *internTab) memBytes() int64 { return int64(len(t.sigs)) * 12 }
