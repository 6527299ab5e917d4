package predindex

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmlval"
)

func TestFig3ValueIndex(t *testing.T) {
	// The running example's index holds two predicates: =1 and >2.
	// Fig. 3 shows the induced interval partition
	// (-inf,1) {1} (1,2] (2,inf) with {1} -> =1 and (2,inf) -> >2.
	b := NewBuilder()
	b.Add(4, xmlval.OpEq, xmlval.NumberConst(1))  // AFA state 4 (and 13 shares the predicate)
	b.Add(13, xmlval.OpEq, xmlval.NumberConst(1)) // π13(1) = true
	b.Add(7, xmlval.OpGt, xmlval.NumberConst(2))
	b.Add(11, xmlval.OpGt, xmlval.NumberConst(2))
	ix := b.Build()

	check := func(text string, want []int32) {
		t.Helper()
		got := ix.Match(xmlval.New(text))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("Match(%q) = %v, want %v", text, got, want)
		}
	}
	check("0", []int32{})
	check("1", []int32{4, 13})
	check("1.5", []int32{})
	check("2", []int32{})
	check("3", []int32{7, 11})
	check("55", []int32{7, 11})
	check("abc", []int32{}) // non-numeric satisfies no numeric predicate
}

func TestAlwaysTrue(t *testing.T) {
	b := NewBuilder()
	b.Add(1, xmlval.OpExists, xmlval.Const{})
	b.Add(2, xmlval.OpEq, xmlval.NumberConst(5))
	ix := b.Build()
	if got := fmt.Sprint(ix.Match(xmlval.New("anything"))); got != "[1]" {
		t.Errorf("always: %s", got)
	}
	if got := fmt.Sprint(ix.Match(xmlval.New("5"))); got != "[1 2]" {
		t.Errorf("always+eq: %s", got)
	}
}

func TestStringPredicates(t *testing.T) {
	b := NewBuilder()
	b.Add(1, xmlval.OpEq, xmlval.StringConst("m"))
	b.Add(2, xmlval.OpLt, xmlval.StringConst("m"))
	b.Add(3, xmlval.OpGe, xmlval.StringConst("m"))
	b.Add(4, xmlval.OpNe, xmlval.StringConst("m"))
	ix := b.Build()
	cases := map[string]string{
		"a": "[2 4]",
		"m": "[1 3]",
		"z": "[3 4]",
	}
	for in, want := range cases {
		if got := fmt.Sprint(ix.Match(xmlval.New(in))); got != want {
			t.Errorf("Match(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestMixedDomains(t *testing.T) {
	// Numeric text can satisfy string predicates too (lexicographic).
	b := NewBuilder()
	b.Add(1, xmlval.OpEq, xmlval.NumberConst(10))
	b.Add(2, xmlval.OpEq, xmlval.StringConst("10"))
	ix := b.Build()
	if got := fmt.Sprint(ix.Match(xmlval.New("10"))); got != "[1 2]" {
		t.Errorf("both domains: %s", got)
	}
	if got := fmt.Sprint(ix.Match(xmlval.New("10.0"))); got != "[1]" {
		t.Errorf("numeric only: %s", got)
	}
}

func TestContainsStartsWith(t *testing.T) {
	b := NewBuilder()
	b.Add(1, xmlval.OpContains, xmlval.StringConst("ell"))
	b.Add(2, xmlval.OpContains, xmlval.StringConst("lo w"))
	b.Add(3, xmlval.OpStartsWith, xmlval.StringConst("hel"))
	b.Add(4, xmlval.OpStartsWith, xmlval.StringConst("world"))
	b.Add(5, xmlval.OpContains, xmlval.StringConst("he"))
	ix := b.Build()
	if !ix.HasStringFuncs() {
		t.Fatal("HasStringFuncs")
	}
	got := fmt.Sprint(ix.Match(xmlval.New("hello world")))
	if got != "[1 2 3 5]" {
		t.Errorf("match = %s", got)
	}
	if got := fmt.Sprint(ix.Match(xmlval.New("world"))); got != "[4]" {
		t.Errorf("match = %s", got)
	}
	// Repeated occurrences must not duplicate ids.
	if got := fmt.Sprint(ix.Match(xmlval.New("hehehe"))); got != "[5]" {
		t.Errorf("dedup: %s", got)
	}
}

func TestIntervalKeyConsistency(t *testing.T) {
	b := NewBuilder()
	b.Add(1, xmlval.OpLt, xmlval.NumberConst(10))
	b.Add(2, xmlval.OpEq, xmlval.StringConst("x"))
	ix := b.Build()
	if ix.IntervalKey(xmlval.New("3")) != ix.IntervalKey(xmlval.New("4")) {
		t.Error("values in the same interval must share a key")
	}
	if ix.IntervalKey(xmlval.New("3")) == ix.IntervalKey(xmlval.New("10")) {
		t.Error("point and gap must differ")
	}
	if ix.IntervalKey(xmlval.New("x")) == ix.IntervalKey(xmlval.New("y")) {
		t.Error("string point vs gap must differ")
	}
	if ix.NumIntervals() != 3 {
		t.Errorf("NumIntervals = %d", ix.NumIntervals())
	}
}

// bruteForce evaluates every predicate directly: the reference Match and the
// interval partition are checked against.
type testPred struct {
	id int32
	op xmlval.Op
	c  xmlval.Const
}

func bruteForce(preds []testPred, v xmlval.Value) []int32 {
	var want []int32
	for _, p := range preds {
		if xmlval.Eval(p.op, v, p.c) {
			want = append(want, p.id)
		}
	}
	slices.Sort(want)
	return slices.Compact(want)
}

// TestBruteForceProperty cross-checks the index against direct evaluation of
// every predicate on random values: constants, values that miss every
// constant (below, between and above them, in both domains) and
// whitespace-padded text. Values sharing an IntervalKey must share their
// relational satisfied set, the contract the machine's value table rests on.
func TestBruteForceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ops := []xmlval.Op{xmlval.OpEq, xmlval.OpNe, xmlval.OpLt, xmlval.OpLe, xmlval.OpGt, xmlval.OpGe}
	words := []string{"", "a", "ab", "abc", "b", "hello", "m", "zz"}
	// No constant equals any of these; they sort below, between and above
	// the words ("\x01" < "a" < "aa" < "ab" < ... < "zz" < "zzz").
	misses := []string{"\x01", "A", "aa", "aba", "abd", "c", "hellp", "n", "z", "zzz", "~"}
	for trial := 0; trial < 120; trial++ {
		b := NewBuilder()
		var preds []testPred
		n := 1 + r.Intn(40)
		// A third of the trials have equality-only string constants (no
		// ordered list: every miss is one gap), a third string-function
		// free (so the whole Match is interval-cacheable).
		eqOnlyStrings := trial%3 == 0
		noFuncs := trial%3 == 1
		for i := 0; i < n; i++ {
			// Ids repeat now and then: an id fires when any of its
			// predicates holds.
			p := testPred{id: int32(i)}
			if i > 0 && r.Intn(8) == 0 {
				p.id = int32(r.Intn(i))
			}
			k := r.Intn(6)
			if noFuncs && k < 2 {
				k = 2
			}
			switch k {
			case 0:
				p.op, p.c = xmlval.OpContains, xmlval.StringConst(words[1+r.Intn(len(words)-1)])
			case 1:
				p.op, p.c = xmlval.OpStartsWith, xmlval.StringConst(words[1+r.Intn(len(words)-1)])
			case 2:
				op := ops[r.Intn(len(ops))]
				if eqOnlyStrings {
					op = ops[r.Intn(2)]
				}
				p.op, p.c = op, xmlval.StringConst(words[r.Intn(len(words))])
			case 3:
				p.op = xmlval.OpExists
			default:
				p.op, p.c = ops[r.Intn(len(ops))], xmlval.NumberConst(float64(r.Intn(10)-5))
			}
			preds = append(preds, p)
			b.Add(p.id, p.op, p.c)
		}
		ix := b.Build()
		byKey := map[int64]string{}
		for probe := 0; probe < 80; probe++ {
			var v xmlval.Value
			switch r.Intn(5) {
			case 0:
				v = xmlval.FromNumber(float64(r.Intn(14)-7) / 2)
			case 1:
				v = xmlval.FromNumber(float64(r.Intn(40)-20) + 0.25) // misses every numeric constant
			case 2:
				v = xmlval.New(words[r.Intn(len(words))])
			case 3:
				v = xmlval.New(misses[r.Intn(len(misses))])
			default:
				pad := []string{" ", "\n\t", "  "}
				text := words[r.Intn(len(words))]
				if r.Intn(2) == 0 {
					text = strconv.Itoa(r.Intn(10) - 5)
				}
				v = xmlval.New(pad[r.Intn(len(pad))] + text + pad[r.Intn(len(pad))])
			}
			want := bruteForce(preds, v)
			got := ix.Match(v)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: Match(%q) = %v, want %v (preds %v)",
					trial, v.Text, got, want, preds)
			}
			rel := fmt.Sprint(ix.matchRelational(v))
			key := ix.IntervalKey(v)
			if prev, ok := byKey[key]; ok && prev != rel {
				t.Fatalf("trial %d: IntervalKey %#x covers %q with set %s and an earlier value with set %s (preds %v)",
					trial, key, v.Text, rel, prev, preds)
			}
			byKey[key] = rel
		}
	}
}

// TestRepresentativesCoverEveryKey: the values the machine precomputes over
// must reach every interval a lookup can return, so a warm value table has
// no row left to build.
func TestRepresentativesCoverEveryKey(t *testing.T) {
	b := NewBuilder()
	for i, c := range []string{"b", "d", "f", "h"} {
		op := xmlval.OpEq
		if i == 2 {
			op = xmlval.OpLt // "f" is the only ordered string constant
		}
		b.Add(int32(i), op, xmlval.StringConst(c))
	}
	b.Add(10, xmlval.OpEq, xmlval.NumberConst(1))
	b.Add(11, xmlval.OpGe, xmlval.NumberConst(5))
	b.Add(12, xmlval.OpNe, xmlval.NumberConst(9))
	ix := b.Build()
	keys := map[int64]bool{}
	for _, v := range ix.Representatives() {
		keys[ix.IntervalKey(v)] = true
	}
	for _, text := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "", "0", "1", "3", "5", "7", "9", "11"} {
		if v := xmlval.New(text); !v.IsNum && !keys[ix.IntervalKey(v)] {
			t.Errorf("no representative shares the interval of %q", text)
		}
	}
	// Two string gaps: below "f" and above it.
	gaps := map[int]bool{}
	for _, text := range []string{"a", "c", "e", "g", "i"} {
		gaps[ix.strInterval(text)] = true
	}
	if len(gaps) != 2 {
		t.Errorf("string misses fall into %d gaps, want 2 (one ordered constant)", len(gaps))
	}
}

// FuzzStrInterval checks the string side of the partition against direct
// evaluation: whatever the constants, their operators and the probe, Match
// is what xmlval.Eval says, and two probes with one interval id agree.
func FuzzStrInterval(f *testing.F) {
	f.Add("a\x00b\x00c", []byte{0, 2, 1}, "b", "bb")
	f.Add("m", []byte{3}, "a", "z")
	f.Add("\x00x", []byte{0, 5}, "", " x ")
	f.Add("k1\x00k2\x00k3\x00k4", []byte{0, 0, 1, 0}, "k0", "k5")
	f.Fuzz(func(t *testing.T, consts string, opBytes []byte, a, b string) {
		bd := NewBuilder()
		var preds []testPred
		for i, c := range strings.Split(consts, "\x00") {
			if i >= len(opBytes) || i >= 64 {
				break
			}
			p := testPred{int32(i), xmlval.Op(opBytes[i] % 6), xmlval.StringConst(c)}
			preds = append(preds, p)
			bd.Add(p.id, p.op, p.c)
		}
		ix := bd.Build()
		va, vb := xmlval.New(a), xmlval.New(b)
		for _, v := range []xmlval.Value{va, vb} {
			if got, want := ix.Match(v), bruteForce(preds, v); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Match(%q) = %v, want %v (preds %v)", v.Text, got, want, preds)
			}
		}
		if ix.strInterval(va.Trimmed()) == ix.strInterval(vb.Trimmed()) &&
			fmt.Sprint(ix.Match(va)) != fmt.Sprint(ix.Match(vb)) {
			t.Fatalf("%q and %q share interval %d but not their satisfied set (preds %v)",
				a, b, ix.strInterval(va.Trimmed()), preds)
		}
	})
}

func TestIntervalCacheReuse(t *testing.T) {
	b := NewBuilder()
	b.Add(1, xmlval.OpLt, xmlval.NumberConst(100))
	ix := b.Build()
	a1 := ix.Match(xmlval.New("5"))
	a2 := ix.Match(xmlval.New("7"))
	if &a1[0] != &a2[0] {
		t.Error("same interval should return the cached slice")
	}
}

func TestSatisfyingValue(t *testing.T) {
	cases := []struct {
		op xmlval.Op
		c  xmlval.Const
	}{
		{xmlval.OpEq, xmlval.NumberConst(5)},
		{xmlval.OpNe, xmlval.NumberConst(5)},
		{xmlval.OpLt, xmlval.NumberConst(5)},
		{xmlval.OpLe, xmlval.NumberConst(5)},
		{xmlval.OpGt, xmlval.NumberConst(5)},
		{xmlval.OpGe, xmlval.NumberConst(5)},
		{xmlval.OpEq, xmlval.StringConst("abc")},
		{xmlval.OpNe, xmlval.StringConst("abc")},
		{xmlval.OpLt, xmlval.StringConst("abc")},
		{xmlval.OpGt, xmlval.StringConst("abc")},
		{xmlval.OpContains, xmlval.StringConst("abc")},
		{xmlval.OpStartsWith, xmlval.StringConst("abc")},
		{xmlval.OpExists, xmlval.Const{}},
	}
	for _, tc := range cases {
		v, ok := SatisfyingValue(tc.op, tc.c)
		if !ok {
			t.Errorf("SatisfyingValue(%v, %v) impossible", tc.op, tc.c)
			continue
		}
		if !xmlval.Eval(tc.op, v, tc.c) {
			t.Errorf("SatisfyingValue(%v, %v) = %q does not satisfy", tc.op, tc.c, v.Text)
		}
	}
	if _, ok := SatisfyingValue(xmlval.OpLt, xmlval.StringConst("")); ok {
		t.Error("nothing sorts below the empty string")
	}
}

func TestBuilderLen(t *testing.T) {
	b := NewBuilder()
	if b.Len() != 0 {
		t.Error("empty")
	}
	b.Add(1, xmlval.OpEq, xmlval.NumberConst(1))
	b.Add(2, xmlval.OpEq, xmlval.NumberConst(2))
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := NewBuilder().Build()
	if got := ix.Match(xmlval.New("anything")); len(got) != 0 {
		t.Errorf("empty index matched %v", got)
	}
}

func BenchmarkMatchRelational(b *testing.B) {
	bd := NewBuilder()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		op := []xmlval.Op{xmlval.OpEq, xmlval.OpLt, xmlval.OpGt}[r.Intn(3)]
		bd.Add(int32(i), op, xmlval.NumberConst(float64(r.Intn(50000))))
	}
	ix := bd.Build()
	// Warm the touched intervals.
	for i := 0; i < 1000; i++ {
		ix.Match(xmlval.FromNumber(float64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Match(xmlval.FromNumber(float64(i % 1000)))
	}
}

func BenchmarkAhoCorasick(b *testing.B) {
	bd := NewBuilder()
	for i := 0; i < 1000; i++ {
		bd.Add(int32(i), xmlval.OpContains, xmlval.StringConst(fmt.Sprintf("pat%dx", i)))
	}
	ix := bd.Build()
	text := strings.Repeat("some text with pat42x inside ", 10)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Match(xmlval.New(text))
	}
}

// Guard against regressions in the merge helper.
func TestMergeSorted(t *testing.T) {
	cases := []struct{ a, b, want []int32 }{
		{nil, nil, nil},
		{[]int32{1}, nil, []int32{1}},
		{nil, []int32{2}, []int32{2}},
		{[]int32{1, 3, 5}, []int32{2, 3, 4}, []int32{1, 2, 3, 4, 5}},
		{[]int32{1, 2}, []int32{1, 2}, []int32{1, 2}},
	}
	for _, c := range cases {
		got := mergeSorted(c.a, c.b)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("mergeSorted(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Errorf("unsorted: %v", got)
		}
	}
}

// TestExtendKeepsKeys grows a built index by Extend and holds it to three
// things: Match is direct evaluation over every predicate, each value's
// IntervalKey is the one Build gives over the concatenated predicates, and a
// key Extend does not report stale keeps the satisfied set it had before.
func TestExtendKeepsKeys(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	ops := []xmlval.Op{xmlval.OpEq, xmlval.OpNe, xmlval.OpLt, xmlval.OpLe, xmlval.OpGt, xmlval.OpGe}
	words := []string{"", "a", "ab", "abc", "b", "hello", "m", "zz"}
	probe := func() xmlval.Value {
		switch r.Intn(4) {
		case 0:
			return xmlval.FromNumber(float64(r.Intn(14)-7) / 2)
		case 1:
			return xmlval.New(words[r.Intn(len(words))])
		case 2:
			return xmlval.New(words[r.Intn(len(words))] + "q")
		default:
			return xmlval.New(" " + strconv.Itoa(r.Intn(10)-5))
		}
	}
	for trial := 0; trial < 200; trial++ {
		var preds []testPred
		for i := 0; i < 2+r.Intn(30); i++ {
			p := testPred{id: int32(i), op: ops[r.Intn(len(ops))]}
			switch k := r.Intn(10); {
			case k == 0:
				p.op = xmlval.OpExists
			case k == 1:
				p.op, p.c = xmlval.OpContains, xmlval.StringConst(words[1+r.Intn(len(words)-1)])
			case k < 4 || trial%2 == 0 && p.op > xmlval.OpNe:
				// Half the trials add only = and != strings: points stay apart.
				p.op, p.c = ops[r.Intn(2)], xmlval.StringConst(words[r.Intn(len(words))])
			case k < 6:
				p.c = xmlval.StringConst(words[r.Intn(len(words))])
			default:
				p.c = xmlval.NumberConst(float64(r.Intn(10) - 5))
			}
			preds = append(preds, p)
		}
		cut := r.Intn(len(preds))
		head, tail, all := NewBuilder(), NewBuilder(), NewBuilder()
		for i, p := range preds {
			if i < cut {
				head.Add(p.id, p.op, p.c)
			} else {
				tail.Add(p.id, p.op, p.c)
			}
			all.Add(p.id, p.op, p.c)
		}
		ix, whole := head.Build(), all.Build()
		before := map[int64]string{}
		var values []xmlval.Value
		for i := 0; i < 40; i++ {
			v := probe()
			values = append(values, v)
			before[ix.IntervalKey(v)] = fmt.Sprint(ix.matchRelational(v))
		}
		stale := ix.Extend(tail)
		nums, strs := stale.Points()
		changed := func(key int64) bool {
			return stale.Everything() || slices.Contains(nums, int(key>>32)-1) || slices.Contains(strs, int(uint32(key)))
		}
		for i := 0; i < 40; i++ {
			values = append(values, probe())
		}
		for _, v := range values {
			if got, want := ix.Match(v), bruteForce(preds, v); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: extended Match(%q) = %v, want %v (preds %v, cut %d)", trial, v.Text, got, want, preds, cut)
			}
			key := ix.IntervalKey(v)
			if want := whole.IntervalKey(v); key != want {
				t.Fatalf("trial %d: %q has key %#x extended, %#x built (preds %v, cut %d)", trial, v.Text, key, want, preds, cut)
			}
			if set, ok := before[key]; ok && !changed(key) && set != fmt.Sprint(ix.matchRelational(v)) {
				t.Fatalf("trial %d: key %#x of %q changed from %s to %v but is not stale (preds %v, cut %d)",
					trial, key, v.Text, set, ix.matchRelational(v), preds, cut)
			}
		}
	}
}
