// Package predindex implements the atomic predicate index of Sec. 2 of the
// paper: given a data value v ∈ V, find which predicates from a collection of
// atomic predicates are true on v.
//
// Relational predicates (=, !=, <, <=, >, >=) over the ordered domains int
// and string are answered with a sorted-boundary index: the distinct
// constants partition V into alternating open intervals and points, and the
// set of satisfied predicates is constant on each part (this is exactly the
// interval decomposition visible in the Tvalue table of Fig. 3). Two
// neighbouring gaps differ only when the constant between them carries an
// ordered operator (<, <=, >, >=): a constant used with = and != alone
// treats every value that misses it alike. Gaps are therefore identified by
// the next ordered constant above them (the canonical gaps), which is what
// lets a string value find its part with one hash probe: a hit is a point,
// and a miss searches only the ordered constants, of which the usual
// equality-only workload has none. Satisfied sets are computed lazily per
// interval and cached. Extend adds predicates to a built index without
// moving any interval's key.
//
// The contains / starts-with extension sketched in Sec. 2 is supported with
// an Aho–Corasick dictionary automaton (contains) and a prefix trie
// (starts-with), following the paper's pointer to Aho and Corasick [1].
package predindex

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/xmlval"
)

// entry is one registered predicate.
type entry struct {
	id int32
	op xmlval.Op
	c  xmlval.Const
}

// Builder accumulates predicates before freezing them into an Index, or
// before adding them to one (Index.Extend).
type Builder struct {
	entries []entry
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Add registers a predicate under the caller's id (typically the terminal
// AFA state id). IDs need not be distinct: registering the same id for two
// predicates means the id fires when either holds.
func (b *Builder) Add(id int32, op xmlval.Op, c xmlval.Const) {
	b.entries = append(b.entries, entry{id: id, op: op, c: c})
}

// Len reports the number of registered predicates.
func (b *Builder) Len() int { return len(b.entries) }

// Build freezes the registered predicates into an Index.
func (b *Builder) Build() *Index {
	ix := &Index{}
	var num constBuckets[float64]
	var str constBuckets[string]
	for _, e := range b.entries {
		switch e.op {
		case xmlval.OpExists:
			ix.always = append(ix.always, e.id)
		case xmlval.OpContains:
			ix.ac.add(e.c.Str, e.id)
			ix.hasStringFuncs = true
		case xmlval.OpStartsWith:
			ix.prefix.add(e.c.Str, e.id)
			ix.hasStringFuncs = true
		default:
			if e.c.Kind == xmlval.Number {
				num.bucket(e.c.Num).add(e.op, e.id)
			} else {
				str.bucket(e.c.Str).add(e.op, e.id)
			}
		}
	}
	ix.num = newDomain(num.consts, num.ops)
	ix.str = newDomain(str.consts, str.ops)
	ix.strTab = newConstTable(str.consts)
	slices.Sort(ix.always)
	ix.always = slices.Compact(ix.always)
	ix.ac.build()
	return ix
}

// constBuckets collects one domain's constants in order of first
// registration — the order that numbers them (their key ids) — with their
// operator buckets.
type constBuckets[T float64 | string] struct {
	consts []T
	ops    []*opBuckets
	index  map[T]int
}

func (c *constBuckets[T]) bucket(k T) *opBuckets {
	if c.index == nil {
		c.index = map[T]int{}
	}
	i, ok := c.index[k]
	if !ok {
		i = len(c.consts)
		c.index[k] = i
		c.consts = append(c.consts, k)
		c.ops = append(c.ops, &opBuckets{})
	}
	return c.ops[i]
}

// Stale says which interval keys an Extend changed the satisfied set of:
// the value states cached under any other key still hold.
type Stale struct {
	all      bool // an exists predicate: every value's set grew
	num, str staleKeys
}

type staleKeys struct {
	all    bool
	points []int
}

func (k *staleKeys) note(key int) {
	switch {
	case key == staleAll:
		k.all = true
	case key >= 0:
		k.points = append(k.points, key)
	}
}

// Everything reports whether every key of a domain changed.
func (s *Stale) Everything() bool { return s.all || s.num.all || s.str.all }

// Points returns the point keys, per domain, whose sets changed; the rest
// of the keys kept theirs unless Everything. An IntervalKey k holds the
// numeric key int(k>>32)-1 (-1 for a value that is no number) and the
// string key int(uint32(k)).
func (s *Stale) Points() (num, str []int) { return s.num.points, s.str.points }

// Extend adds the builder's predicates to a built index. Interval keys do
// not move: a new constant gets the next key id of its domain, so every
// cached satisfied set — the index's own and whatever a caller memoized
// under an IntervalKey — stays valid except under the keys the returned
// Stale names. An = on a new constant makes a new point and changes no
// set; on a known constant it changes that point's. A != or an ordered
// operator changes its domain's every set, and an exists predicate every
// set of both. contains and starts-with are never interval-cached: their
// automata are rebuilt.
func (ix *Index) Extend(b *Builder) Stale {
	var st Stale
	funcs := false
	for _, e := range b.entries {
		switch e.op {
		case xmlval.OpExists:
			if i, ok := slices.BinarySearch(ix.always, e.id); !ok {
				ix.always = slices.Insert(ix.always, i, e.id)
			}
			st.all = true
		case xmlval.OpContains:
			ix.ac.add(e.c.Str, e.id)
			funcs = true
		case xmlval.OpStartsWith:
			ix.prefix.add(e.c.Str, e.id)
			funcs = true
		default:
			if e.c.Kind == xmlval.Number {
				st.num.note(ix.num.add(e.c.Num, e.op, e.id))
			} else {
				n := len(ix.str.byCid)
				st.str.note(ix.str.add(e.c.Str, e.op, e.id))
				if len(ix.str.byCid) > n {
					ix.strTab.add(e.c.Str, int32(n))
				}
			}
		}
	}
	if funcs {
		ix.hasStringFuncs = true
		ix.ac.build()
	}
	return st
}

// opBuckets groups predicate ids per relational operator for one constant.
type opBuckets struct {
	eq, ne, lt, le, gt, ge []int32
}

func (b *opBuckets) add(op xmlval.Op, id int32) {
	switch op {
	case xmlval.OpEq:
		b.eq = append(b.eq, id)
	case xmlval.OpNe:
		b.ne = append(b.ne, id)
	case xmlval.OpLt:
		b.lt = append(b.lt, id)
	case xmlval.OpLe:
		b.le = append(b.le, id)
	case xmlval.OpGt:
		b.gt = append(b.gt, id)
	case xmlval.OpGe:
		b.ge = append(b.ge, id)
	}
}

// ordered reports whether the constant carries an operator that tells the
// values below it from the values above it.
func (b *opBuckets) ordered() bool {
	return len(b.lt)+len(b.le)+len(b.gt)+len(b.ge) > 0
}

// run is one family of id lists concatenated in constant order: off[i] ids
// come from the constants below constant i, so "every constant below i" and
// "every constant from i up" are slices, not walks.
type run struct {
	ids []int32
	off []int32 // len(constants)+1
}

func (r *run) below(i int) []int32 { return r.ids[:r.off[i]] }
func (r *run) from(i int) []int32  { return r.ids[r.off[i]:] }

// insert adds id to the list of the constant at position i.
func (r *run) insert(i int, id int32) {
	r.ids = slices.Insert(r.ids, int(r.off[i+1]), id)
	for j := i + 1; j < len(r.off); j++ {
		r.off[j]++
	}
}

// Interval keys. Constants are numbered per domain in order of first
// registration (the key id, cid), and a key names its interval by a
// constant's cid rather than by its position, so adding a constant leaves
// every other key where it was: 2cid+1 is the point at constant cid, 2cid+2
// the gap whose first ordered constant above is cid, and 0 the gap above
// every ordered constant. Only these canonical gaps are ever looked up.
const staleAll = -2 // domain.add: every key of the domain

// domain holds the satisfied sets of one ordered constant domain.
type domain[T float64 | string] struct {
	consts []T          // distinct constants, ascending
	cids   []int32      // per position: the constant's key id
	ops    []*opBuckets // per position
	byCid  []T          // key id -> constant
	preds  int

	// ordered lists the constants carrying an ordered operator, ascending;
	// orderedGap[j] is the key of the gap below ordered[j], and one more
	// entry, 0, is the gap above them all.
	ordered    []T
	orderedGap []int32

	ne   run // != ids: hold at every value but their own constant
	up   run // > and >= ids: hold when the constant lies below the value
	down run // < and <= ids: hold when the constant lies above the value

	cache map[int][]int32
}

// newDomain builds a domain from its constants in key-id order and their
// buckets.
func newDomain[T float64 | string](byCid []T, buckets []*opBuckets) domain[T] {
	d := domain[T]{byCid: byCid, cache: make(map[int][]int32), orderedGap: []int32{0}}
	order := make([]int32, len(byCid))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(byCid[a], byCid[b]) })
	d.ne.off, d.up.off, d.down.off = []int32{0}, []int32{0}, []int32{0}
	for _, cid := range order {
		b := buckets[cid]
		d.consts = append(d.consts, byCid[cid])
		d.cids = append(d.cids, cid)
		d.ops = append(d.ops, b)
		d.ne.ids = append(d.ne.ids, b.ne...)
		d.up.ids = append(append(d.up.ids, b.gt...), b.ge...)
		d.down.ids = append(append(d.down.ids, b.lt...), b.le...)
		d.ne.off = append(d.ne.off, int32(len(d.ne.ids)))
		d.up.off = append(d.up.off, int32(len(d.up.ids)))
		d.down.off = append(d.down.off, int32(len(d.down.ids)))
		d.preds += len(b.eq) + len(b.ne) + len(b.lt) + len(b.le) + len(b.gt) + len(b.ge)
		if b.ordered() {
			d.ordered = append(d.ordered, byCid[cid])
			d.orderedGap = slices.Insert(d.orderedGap, len(d.orderedGap)-1, 2*cid+2)
		}
	}
	return d
}

// search returns the position of the first constant >= v.
func (d *domain[T]) search(v T) int {
	return sort.Search(len(d.consts), func(i int) bool { return d.consts[i] >= v })
}

// interval returns the key of v's point, or of the canonical gap it falls
// into.
func (d *domain[T]) interval(v T) int {
	if i := d.search(v); i < len(d.consts) && d.consts[i] == v {
		return 2*int(d.cids[i]) + 1
	}
	return d.gap(v)
}

// gap returns the key of the canonical gap holding v, a value that is no
// constant.
func (d *domain[T]) gap(v T) int {
	return int(d.orderedGap[sort.Search(len(d.ordered), func(j int) bool { return d.ordered[j] >= v })])
}

// add registers one relational predicate and returns the key whose cached
// set it changed: -1 for none, staleAll for every key of the domain.
func (d *domain[T]) add(c T, op xmlval.Op, id int32) int {
	i := d.search(c)
	fresh := i == len(d.consts) || d.consts[i] != c
	if fresh {
		cid := int32(len(d.byCid))
		d.byCid = append(d.byCid, c)
		d.consts = slices.Insert(d.consts, i, c)
		d.cids = slices.Insert(d.cids, i, cid)
		d.ops = slices.Insert(d.ops, i, &opBuckets{})
		d.ne.off = slices.Insert(d.ne.off, i, d.ne.off[i])
		d.up.off = slices.Insert(d.up.off, i, d.up.off[i])
		d.down.off = slices.Insert(d.down.off, i, d.down.off[i])
	}
	b := d.ops[i]
	wasOrdered := b.ordered()
	b.add(op, id)
	d.preds++
	switch op {
	case xmlval.OpEq:
		if fresh {
			return -1 // a new point: no cached set held its value apart
		}
		key := 2*int(d.cids[i]) + 1
		delete(d.cache, key)
		return key
	case xmlval.OpNe:
		d.ne.insert(i, id)
	case xmlval.OpGt, xmlval.OpGe:
		d.up.insert(i, id)
	default:
		d.down.insert(i, id)
	}
	if !wasOrdered && b.ordered() {
		j := sort.Search(len(d.ordered), func(j int) bool { return d.ordered[j] >= c })
		d.ordered = slices.Insert(d.ordered, j, c)
		d.orderedGap = slices.Insert(d.orderedGap, j, 2*d.cids[i]+2)
	}
	clear(d.cache)
	return staleAll
}

// satisfied returns the cached sorted satisfied set of one interval.
func (d *domain[T]) satisfied(key int) []int32 {
	set, ok := d.cache[key]
	if !ok {
		set = d.compute(key)
		d.cache[key] = set
	}
	return set
}

// compute materialises the satisfied set of one interval; the work is
// proportional to the set, not to the number of constants.
func (d *domain[T]) compute(key int) []int32 {
	// pos: a point's constant, or the first constant above a gap.
	pos, point := len(d.consts), key%2 == 1
	if key > 0 {
		pos = d.search(d.byCid[(key-1)/2])
	}
	out := append([]int32(nil), d.up.below(pos)...)
	if !point {
		out = append(out, d.down.from(pos)...)
		out = append(out, d.ne.ids...)
	} else {
		b := d.ops[pos]
		out = append(out, b.eq...)
		out = append(out, b.le...)
		out = append(out, b.ge...)
		out = append(out, d.down.from(pos+1)...)
		out = append(out, d.ne.below(pos)...)
		out = append(out, d.ne.from(pos+1)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// constTable resolves a string constant to its key id: a byte-keyed
// open-addressing table of the same shape as afa.Symbols, except that a slot
// carries the key's hash beside the id, so a probe that misses — most text
// is no constant — never leaves the slot array.
type constTable struct {
	slots  []constSlot // power-of-two length, at most half full
	consts []string    // by key id
	maxLen int         // longest constant: longer text cannot be a point
}

type constSlot struct {
	hash uint32
	ref  int32 // key id + 1; 0 marks an empty slot
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashString(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// newConstTable indexes the constants, given in key-id order.
func newConstTable(consts []string) constTable {
	t := constTable{}
	for cid, c := range consts {
		t.add(c, int32(cid))
	}
	return t
}

// add indexes constant c, which is not indexed yet, under key id cid, the
// next one.
func (t *constTable) add(c string, cid int32) {
	if 2*(len(t.consts)+1) > len(t.slots) {
		n := max(16, 2*len(t.slots))
		t.slots = make([]constSlot, n)
		for i, old := range t.consts {
			t.place(old, int32(i))
		}
	}
	t.consts = append(t.consts, c)
	t.maxLen = max(t.maxLen, len(c))
	t.place(c, cid)
}

func (t *constTable) place(c string, cid int32) {
	h := hashString(c)
	mask := uint64(len(t.slots) - 1)
	j := h & mask
	for t.slots[j].ref != 0 {
		j = (j + 1) & mask
	}
	t.slots[j] = constSlot{hash: uint32(h >> 32), ref: cid + 1}
}

func (t *constTable) lookup(s string) (int, bool) {
	if len(s) > t.maxLen || len(t.slots) == 0 {
		return 0, false
	}
	h := hashString(s)
	mask := uint64(len(t.slots) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		sl := t.slots[j]
		if sl.ref == 0 {
			return 0, false
		}
		if sl.hash == uint32(h>>32) && t.consts[sl.ref-1] == s {
			return int(sl.ref - 1), true
		}
	}
}

// Index answers "which predicates hold on v" queries. It is safe for
// concurrent reads only after a warm-up that has touched the relevant
// intervals; the lazy per-interval cache is not synchronised (the XPush
// machine is single-threaded per stream, per the paper's execution model).
type Index struct {
	num    domain[float64]
	str    domain[string]
	strTab constTable

	always []int32 // OpExists predicates: true on every value

	ac             acAutomaton
	prefix         trieNode
	hasStringFuncs bool
}

// HasStringFuncs reports whether any contains/starts-with predicates are
// registered; their results are not interval-cacheable.
func (ix *Index) HasStringFuncs() bool { return ix.hasStringFuncs }

// NumIntervals reports the number of parts in the numeric interval
// partition (2k+1 for k distinct constants).
func (ix *Index) NumIntervals() int { return 2*len(ix.num.consts) + 1 }

// IntervalKey returns a compact identity of the (numeric, string) interval
// pair a value falls into. Values with equal keys satisfy exactly the same
// relational predicates, so the key can memoize downstream state lookups
// (it is how the paper precomputes "all the XPush states of the form
// tvalue(qt0, v)", Sec. 4). A key keeps its meaning across Extend, which
// reports the keys whose sets it changed.
func (ix *Index) IntervalKey(v xmlval.Value) int64 {
	n := -1 // non-numeric: no numeric predicate can hold
	if v.IsNum {
		n = ix.num.interval(v.Num)
	}
	return (int64(n)+1)<<32 | int64(ix.strInterval(v.Trimmed()))
}

// Match returns the sorted ids of all predicates true on v, including the
// always-true (exists) predicates. The returned slice must not be modified.
// When string-function predicates fire, a fresh slice is returned; otherwise
// the result is a cached per-interval slice.
func (ix *Index) Match(v xmlval.Value) []int32 {
	rel := ix.matchRelational(v)
	if !ix.hasStringFuncs {
		return rel
	}
	text := v.Trimmed()
	var dyn []int32
	dyn = ix.ac.match(text, dyn)
	dyn = ix.prefix.match(text, dyn)
	if len(dyn) == 0 {
		return rel
	}
	slices.Sort(dyn)
	return mergeSorted(rel, slices.Compact(dyn))
}

// matchRelational returns the cached sorted satisfied set of relational and
// exists predicates for v.
func (ix *Index) matchRelational(v xmlval.Value) []int32 {
	var num []int32
	if v.IsNum && ix.num.preds > 0 {
		num = ix.num.satisfied(ix.num.interval(v.Num))
	}
	var str []int32
	if ix.str.preds > 0 {
		str = ix.str.satisfied(ix.strInterval(v.Trimmed()))
	}
	// Merge the two cached slices plus the always-true set. The common
	// case has at most one non-empty side.
	switch {
	case len(num) == 0 && len(str) == 0:
		return ix.always
	case len(str) == 0 && len(ix.always) == 0:
		return num
	case len(num) == 0 && len(ix.always) == 0:
		return str
	default:
		return mergeSorted(mergeSorted(num, str), ix.always)
	}
}

// strInterval returns the interval key of a string: one hash probe finds a
// point; a miss falls into the gap below the first ordered constant above
// it.
func (ix *Index) strInterval(v string) int {
	if cid, ok := ix.strTab.lookup(v); ok {
		return 2*cid + 1
	}
	return ix.str.gap(v)
}

// mergeSorted merges two sorted id slices into a fresh sorted deduplicated
// slice.
func mergeSorted(a, b []int32) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Representatives returns one value per interval that a lookup can return:
// every numeric and string constant (the point intervals) plus a witness
// inside each canonical gap. Touching all of them materialises every
// satisfied-set the relational predicates can produce; the XPush machine's
// state precomputation (Sec. 4) and eager construction iterate them.
func (ix *Index) Representatives() []xmlval.Value {
	num, str := ix.num.consts, ix.str.consts
	out := make([]xmlval.Value, 0, len(num)+len(str)+len(ix.str.ordered)+2)
	for i, c := range num {
		if ix.num.ops[i].ordered() {
			if i == 0 {
				out = append(out, xmlval.FromNumber(c-1))
			} else {
				out = append(out, xmlval.FromNumber((num[i-1]+c)/2))
			}
		}
		out = append(out, xmlval.FromNumber(c))
	}
	if n := len(num); n > 0 {
		out = append(out, xmlval.FromNumber(num[n-1]+1))
	}
	for i, c := range str {
		if ix.str.ops[i].ordered() {
			if i == 0 && c != "" {
				out = append(out, xmlval.New(""))
			} else if i > 0 {
				// The first string strictly above the previous constant.
				out = append(out, xmlval.New(str[i-1]+"\x00"))
			}
		}
		out = append(out, xmlval.New(c))
	}
	if n := len(str); n > 0 {
		out = append(out, xmlval.New(str[n-1]+"\x7f"))
	}
	return out
}

// SatisfyingValue produces a value that satisfies the predicate, used by the
// training-data generator of Sec. 5 ("atomic predicates are replaced with
// values that satisfy them"). The second result is false when no value in
// the domain satisfies the predicate (cannot happen for this fragment).
func SatisfyingValue(op xmlval.Op, c xmlval.Const) (xmlval.Value, bool) {
	if c.Kind == xmlval.Number {
		switch op {
		case xmlval.OpEq, xmlval.OpLe, xmlval.OpGe:
			return xmlval.FromNumber(c.Num), true
		case xmlval.OpNe:
			return xmlval.FromNumber(c.Num + 1), true
		case xmlval.OpLt:
			return xmlval.FromNumber(c.Num - 1), true
		case xmlval.OpGt:
			return xmlval.FromNumber(c.Num + 1), true
		case xmlval.OpExists:
			return xmlval.New("x"), true
		default:
			return xmlval.Value{}, false
		}
	}
	switch op {
	case xmlval.OpEq, xmlval.OpLe, xmlval.OpGe, xmlval.OpContains, xmlval.OpStartsWith:
		return xmlval.New(c.Str), true
	case xmlval.OpNe, xmlval.OpGt:
		return xmlval.New(c.Str + "z"), true
	case xmlval.OpLt:
		if c.Str == "" {
			return xmlval.Value{}, false // nothing sorts below ""
		}
		return xmlval.New(""), true
	case xmlval.OpExists:
		return xmlval.New("x"), true
	default:
		return xmlval.Value{}, false
	}
}
