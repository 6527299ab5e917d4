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
// interval and cached.
//
// The contains / starts-with extension sketched in Sec. 2 is supported with
// an Aho–Corasick dictionary automaton (contains) and a prefix trie
// (starts-with), following the paper's pointer to Aho and Corasick [1].
package predindex

import (
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

// Builder accumulates predicates before freezing them into an Index.
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
	numBuckets := map[float64]*opBuckets{}
	strBuckets := map[string]*opBuckets{}
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
				bk := numBuckets[e.c.Num]
				if bk == nil {
					bk = &opBuckets{}
					numBuckets[e.c.Num] = bk
				}
				bk.add(e.op, e.id)
			} else {
				bk := strBuckets[e.c.Str]
				if bk == nil {
					bk = &opBuckets{}
					strBuckets[e.c.Str] = bk
				}
				bk.add(e.op, e.id)
			}
		}
	}

	ix.numConsts = make([]float64, 0, len(numBuckets))
	for c := range numBuckets {
		ix.numConsts = append(ix.numConsts, c)
	}
	sort.Float64s(ix.numConsts)
	numOps := make([]*opBuckets, len(ix.numConsts))
	for i, c := range ix.numConsts {
		numOps[i] = numBuckets[c]
	}
	ix.num = newDomain(numOps)
	// A numeric miss already knows the first constant above the value;
	// numGap turns that position into the canonical gap.
	ix.numGap = make([]int32, len(numOps)+1)
	gap := int32(2 * len(numOps))
	for i := len(numOps); i >= 0; i-- {
		if i < len(numOps) && numOps[i].ordered() {
			gap = int32(2 * i)
		}
		ix.numGap[i] = gap
	}

	ix.strConsts = make([]string, 0, len(strBuckets))
	for c := range strBuckets {
		ix.strConsts = append(ix.strConsts, c)
	}
	sort.Strings(ix.strConsts)
	strOps := make([]*opBuckets, len(ix.strConsts))
	for i, c := range ix.strConsts {
		strOps[i] = strBuckets[c]
		if strOps[i].ordered() {
			ix.strOrdered = append(ix.strOrdered, c)
			ix.strOrderedGap = append(ix.strOrderedGap, int32(2*i))
		}
	}
	ix.strOrderedGap = append(ix.strOrderedGap, int32(2*len(strOps)))
	ix.str = newDomain(strOps)
	ix.strTab = newConstTable(ix.strConsts)

	slices.Sort(ix.always)
	ix.always = slices.Compact(ix.always)
	ix.ac.build()
	return ix
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

// domain holds the satisfied sets of one ordered constant domain. Interval
// ids: 2i+1 is the point at constant i; 2i is the gap whose first constant
// above is i (2k: above all k constants). Only canonical gaps — those with
// an ordered constant at i, and 2k — are ever looked up.
type domain struct {
	ops   []*opBuckets // per distinct constant, ascending
	preds int

	ne   run // != ids: hold at every value but their own constant
	up   run // > and >= ids: hold when the constant lies below the value
	down run // < and <= ids: hold when the constant lies above the value

	cache map[int][]int32
}

func newDomain(ops []*opBuckets) domain {
	d := domain{ops: ops, cache: make(map[int][]int32)}
	for _, r := range []*run{&d.ne, &d.up, &d.down} {
		r.off = make([]int32, len(ops)+1)
	}
	for i, b := range ops {
		d.ne.ids = append(d.ne.ids, b.ne...)
		d.up.ids = append(append(d.up.ids, b.gt...), b.ge...)
		d.down.ids = append(append(d.down.ids, b.lt...), b.le...)
		d.ne.off[i+1] = int32(len(d.ne.ids))
		d.up.off[i+1] = int32(len(d.up.ids))
		d.down.off[i+1] = int32(len(d.down.ids))
		d.preds += len(b.eq) + len(b.ne) + len(b.lt) + len(b.le) + len(b.gt) + len(b.ge)
	}
	return d
}

// satisfied returns the cached sorted satisfied set of one interval.
func (d *domain) satisfied(iid int) []int32 {
	set, ok := d.cache[iid]
	if !ok {
		set = d.compute(iid)
		d.cache[iid] = set
	}
	return set
}

// compute materialises the satisfied set of one interval; the work is
// proportional to the set, not to the number of constants.
func (d *domain) compute(iid int) []int32 {
	pos := iid / 2 // a point's constant, or the first constant above a gap
	out := append([]int32(nil), d.up.below(pos)...)
	if iid%2 == 0 {
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

// constTable resolves a string to its index among the sorted constants: a
// byte-keyed open-addressing table of the same shape as afa.Symbols, except
// that a slot carries the key's hash beside the index, so a probe that
// misses — most text is no constant — never leaves the slot array.
type constTable struct {
	slots  []constSlot // power-of-two length, at most half full
	consts []string
	maxLen int // longest constant: longer text cannot be a point
}

type constSlot struct {
	hash uint32
	ref  int32 // constant index + 1; 0 marks an empty slot
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

func newConstTable(consts []string) constTable {
	t := constTable{consts: consts}
	if len(consts) == 0 {
		return t
	}
	n := 16
	for n < 2*len(consts) {
		n *= 2
	}
	t.slots = make([]constSlot, n)
	mask := uint64(n - 1)
	for i, c := range consts {
		t.maxLen = max(t.maxLen, len(c))
		h := hashString(c)
		j := h & mask
		for t.slots[j].ref != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = constSlot{hash: uint32(h >> 32), ref: int32(i + 1)}
	}
	return t
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
	numConsts []float64
	numGap    []int32 // search position -> canonical gap id
	num       domain

	strConsts     []string
	strTab        constTable
	strOrdered    []string // the constants carrying an ordered op, ascending
	strOrderedGap []int32  // search position in strOrdered -> canonical gap id
	str           domain

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
func (ix *Index) NumIntervals() int { return 2*len(ix.numConsts) + 1 }

// IntervalKey returns a compact identity of the (numeric, string) interval
// pair a value falls into. Values with equal keys satisfy exactly the same
// relational predicates, so the key can memoize downstream state lookups
// (it is how the paper precomputes "all the XPush states of the form
// tvalue(qt0, v)", Sec. 4).
func (ix *Index) IntervalKey(v xmlval.Value) int64 {
	n := -1 // non-numeric: no numeric predicate can hold
	if v.IsNum {
		n = ix.numInterval(v.Num)
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
		num = ix.num.satisfied(ix.numInterval(v.Num))
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

// numInterval returns the interval id of a number: its point, or the
// canonical gap it falls into.
func (ix *Index) numInterval(v float64) int {
	i := sort.SearchFloat64s(ix.numConsts, v)
	if i < len(ix.numConsts) && ix.numConsts[i] == v {
		return 2*i + 1
	}
	return int(ix.numGap[i])
}

// strInterval is numInterval for a string: one hash probe finds a point; a
// miss falls into the gap below the first ordered constant above it.
func (ix *Index) strInterval(v string) int {
	if i, ok := ix.strTab.lookup(v); ok {
		return 2*i + 1
	}
	return int(ix.strOrderedGap[sort.SearchStrings(ix.strOrdered, v)])
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
	out := make([]xmlval.Value, 0, len(ix.numConsts)+len(ix.strConsts)+len(ix.strOrdered)+2)
	for i, c := range ix.numConsts {
		if ix.num.ops[i].ordered() {
			if i == 0 {
				out = append(out, xmlval.FromNumber(c-1))
			} else {
				out = append(out, xmlval.FromNumber((ix.numConsts[i-1]+c)/2))
			}
		}
		out = append(out, xmlval.FromNumber(c))
	}
	if n := len(ix.numConsts); n > 0 {
		out = append(out, xmlval.FromNumber(ix.numConsts[n-1]+1))
	}
	for i, c := range ix.strConsts {
		if ix.str.ops[i].ordered() {
			if i == 0 && c != "" {
				out = append(out, xmlval.New(""))
			} else if i > 0 {
				// The first string strictly above the previous constant.
				out = append(out, xmlval.New(ix.strConsts[i-1]+"\x00"))
			}
		}
		out = append(out, xmlval.New(c))
	}
	if n := len(ix.strConsts); n > 0 {
		out = append(out, xmlval.New(ix.strConsts[n-1]+"\x7f"))
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
