package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/afa"
	"repro/internal/dtd"
	"repro/internal/naive"
	"repro/internal/sax"
	"repro/internal/xpath"
)

func compileWorkload(t testing.TB, queries ...string) *afa.AFA {
	t.Helper()
	filters := make([]*xpath.Filter, len(queries))
	for i, q := range queries {
		filters[i] = xpath.MustParse(q)
	}
	a, err := afa.Compile(filters)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func runningMachine(t testing.TB, opts Options) *Machine {
	return New(compileWorkload(t,
		"//a[b/text()=1 and .//a[@c>2]]",
		"//a[@c>2 and b/text()=1]",
	), opts)
}

// TestFig3Trace replays the execution trace of Fig. 3 on the basic
// bottom-up machine and checks the bottom-up state contents at every event.
// Paper state numbering maps to ours as 1→0, 2→6, 3→2, 4→1, 5→3, 6→5, 7→4,
// 8→7, 9→12, 10→9, 11→8, 12→11, 13→10.
func TestFig3Trace(t *testing.T) {
	m := runningMachine(t, Options{})
	check := func(label string, want string) {
		t.Helper()
		_, qb := m.Current()
		if got := fmt.Sprint(m.BStateSet(qb)); got != want {
			t.Fatalf("after %s: qb = %s, want %s", label, got, want)
		}
	}
	m.StartDocument()
	m.StartElementBytes([]byte("a")) // outer <a>
	check("<a>", "[]")
	m.StartElementBytes([]byte("b"))
	m.TextBytes([]byte(" 1 "))
	check("text(1)", "[1 10]") // paper q1 = {4,13}
	m.EndElementBytes([]byte("b"))
	check("</b>", "[2 11]")          // paper q3 = {3,12}
	m.StartElementBytes([]byte("a")) // inner <a c="3">
	m.StartElementBytes([]byte("@c"))
	m.TextBytes([]byte("3"))
	check("text(3)", "[4 8]") // paper q2 = {7,11}
	m.EndElementBytes([]byte("@c"))
	check("</@c>", "[5 9]") // paper q4 = {6,10}
	m.StartElementBytes([]byte("b"))
	m.TextBytes([]byte(" 1 "))
	check("inner text(1)", "[1 10]")
	m.EndElementBytes([]byte("b"))
	check("inner </b>", "[2 5 9 11]") // paper q5 = {3,6,10,12}
	m.EndElementBytes([]byte("a"))
	check("inner </a>", "[2 3 7 11]") // paper q9 = {3,5,8,12}
	m.EndElementBytes([]byte("a"))
	check("outer </a>", "[0 3 7]") // paper q15 = {1,5,8}
	m.EndDocument()
	if got := fmt.Sprint(m.Results()); got != "[0 1]" {
		t.Fatalf("taccept = %s, want [0 1] (both P1 and P2 match)", got)
	}
	if m.StackDepth() != 0 {
		t.Errorf("stack depth = %d", m.StackDepth())
	}
}

// allOptionCombos returns machine configurations covering every
// optimization combination (order uses the universal attributes-first
// order, which is always sound).
func allOptionCombos() map[string]Options {
	return map[string]Options{
		"basic":          {},
		"precomp":        {PrecomputeValues: true},
		"td":             {TopDown: true},
		"order":          {Order: dtd.EmptyOrder()},
		"td-order":       {TopDown: true, Order: dtd.EmptyOrder()},
		"early":          {Early: true},
		"order-early":    {Order: dtd.EmptyOrder(), Early: true},
		"td-order-early": {TopDown: true, Order: dtd.EmptyOrder(), Early: true},
	}
}

// TestMatrixAllCombos runs the naive-oracle matrix through every
// optimization combination.
func TestMatrixAllCombos(t *testing.T) {
	cases := []struct {
		query string
		doc   string
		want  bool
	}{
		{"/a", "<a/>", true},
		{"/a", "<b/>", false},
		{"/a/b", "<a><b/></a>", true},
		{"/a/b", "<a><c><b/></c></a>", false},
		{"//b", "<a><c><b/></c></a>", true},
		{"/a//b", "<a><b/></a>", true},
		{"/a//b", "<b><a/></b>", false},
		{"/*", "<z/>", true},
		{"/a/*", "<a><x/></a>", true},
		{"/a/*", "<a>text</a>", false},
		{"/a/@c", `<a c="1"/>`, true},
		{"/a/@c", `<a d="1"/>`, false},
		{"/a/@*", `<a d="1"/>`, true},
		{"/a/@*", `<a/>`, false},
		{"/a/text()", "<a>x</a>", true},
		{"/a/text()", "<a><b/></a>", false},
		{"/a[b]", "<a><b/></a>", true},
		{"/a[b]", "<a><c/></a>", false},
		{"/a[b=1]", "<a><b>1</b></a>", true},
		{"/a[b=1]", "<a><b>2</b></a>", false},
		{"/a[b=1]", "<a><b>2</b><b>1</b></a>", true},
		{"/a[b!=1]", "<a><b>2</b></a>", true},
		{"/a[b!=1]", "<a><b>1</b></a>", false},
		{"/a[b<5 and b>2]", "<a><b>3</b></a>", true},
		{"/a[b<5 and b>2]", "<a><b>7</b></a>", false},
		{"/a[b<3 and b>4]", "<a><b>2</b><b>5</b></a>", true},
		{"/a[b=1 or c=2]", "<a><c>2</c></a>", true},
		{"/a[b=1 or c=2]", "<a><c>3</c></a>", false},
		{"/a[not(b=1)]", "<a><b>2</b></a>", true},
		{"/a[not(b=1)]", "<a><b>1</b></a>", false},
		{"/a[not(b=1)]", "<a/>", true},
		{"/a[not(not(b=1))]", "<a><b>1</b></a>", true},
		{"/a[not(not(b=1))]", "<a/>", false},
		{"/a[.=5]", "<a>5</a>", true},
		{"/a[.=5]", "<a>6</a>", false},
		{"/a[text()=5]", "<a>5</a>", true},
		{"/a[@c>2]", `<a c="3"/>`, true},
		{"/a[@c>2]", `<a c="2"/>`, false},
		{"/a[@c>2 and text()=1]", `<a c="3">1</a>`, true},
		{"/a[@c=2 and .=1]", `<a c="2">1</a>`, true},
		{"//a[b/text()=1 and .//a[@c>2]]", `<a><b>1</b><a c="3"><b>1</b></a></a>`, true},
		{"//a[b/text()=1 and .//a[@c>2]]", `<a><b>1</b></a>`, false},
		{"/a[b[c=1]]", "<a><b><c>1</c></b></a>", true},
		{"/a[b[c=1]]", "<a><b><c>2</c></b></a>", false},
		{"/a[.//x=9]", "<a><p><q><x>9</x></q></p></a>", true},
		{"/a/b[c=1]/d", "<a><b><c>1</c><d/></b></a>", true},
		{"/a/b[c=1]/d", "<a><b><c>2</c><d/></b></a>", false},
		{"/a/b[c=1]/d", "<a><b><c>1</c></b><b><d/></b></a>", false},
		{"/a[b='x y']", "<a><b>x y</b></a>", true},
		{"/a[b>'m']", "<a><b>z</b></a>", true},
		{"/a[b>'m']", "<a><b>a</b></a>", false},
		{"/a[contains(b, 'ell')]", "<a><b>hello</b></a>", true},
		{"/a[starts-with(b, 'he')]", "<a><b>hello</b></a>", true},
		{"/a[starts-with(b, 'el')]", "<a><b>hello</b></a>", false},
		{"/a[.//text()='x']", "<a><p><q>x</q></p></a>", true},
		{"/a[b][c]", "<a><b/><c/></a>", true},
		{"/a[b][c]", "<a><b/></a>", false},
		{"//x[y=1]", "<r><s><x><y>1</y></x></s></r>", true},
		{"//x[y=1]", "<r><s><x><y>2</y></x></s></r>", false},
		{"/a[not(b) and c]", "<a><c/></a>", true},
		{"/a[not(b) and c]", "<a><b/><c/></a>", false},
		{"/a[not(b or c)]", "<a><d/></a>", true},
		{"/a[not(b or c)]", "<a><c/></a>", false},
	}
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			for _, tc := range cases {
				m := New(compileWorkload(t, tc.query), opts)
				got, err := m.FilterDocument([]byte(tc.doc))
				if err != nil {
					t.Errorf("%s on %s: %v", tc.query, tc.doc, err)
					continue
				}
				if (len(got) == 1) != tc.want {
					t.Errorf("[%s] %s on %s = %v, want match=%v",
						name, tc.query, tc.doc, got, tc.want)
				}
			}
		})
	}
}

// TestWorkloadSharing verifies that one machine answers a whole workload
// per document.
func TestWorkloadSharing(t *testing.T) {
	queries := []string{
		"/inv[item=1]",
		"/inv[item=2]",
		"/inv[item=1 and qty=5]",
		"/inv[item=1 or qty=9]",
		"//item",
		"/inv/item",
		"/other",
	}
	for name, opts := range allOptionCombos() {
		m := New(compileWorkload(t, queries...), opts)
		got, err := m.FilterDocument([]byte("<inv><item>1</item><qty>5</qty></inv>"))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[0 2 3 4 5]" {
			t.Errorf("[%s] matches = %v, want [0 2 3 4 5]", name, got)
		}
	}
}

func TestMultiDocumentStream(t *testing.T) {
	m := runningMachine(t, Options{})
	var perDoc []string
	m.OnDocument = func(oids []int32) { perDoc = append(perDoc, fmt.Sprint(oids)) }
	stream := `<a><b>1</b><a c="3"><b>1</b></a></a>` + // both match
		`<a><b>1</b></a>` + // no @c>2: none match
		`<a c="5"><b>1</b></a>` // P2 matches (P1 needs a nested a)
	if err := m.Run([]byte(stream)); err != nil {
		t.Fatal(err)
	}
	want := []string{"[0 1]", "[]", "[1]"}
	for i := range want {
		if perDoc[i] != want[i] {
			t.Errorf("doc %d: %s, want %s", i, perDoc[i], want[i])
		}
	}
	if m.Stats().Docs != 3 {
		t.Errorf("docs = %d", m.Stats().Docs)
	}
}

// TestStateReuse checks the lazy machine reuses states across documents —
// the cache behaviour behind Fig. 8.
func TestStateReuse(t *testing.T) {
	m := runningMachine(t, Options{})
	doc := []byte(`<a><b>1</b><a c="3"><b>1</b></a></a>`)
	if _, err := m.FilterDocument(doc); err != nil {
		t.Fatal(err)
	}
	statesAfterFirst := m.Stats().BStates
	lookups1 := m.Stats().Lookups
	hits1 := m.Stats().Hits
	for i := 0; i < 10; i++ {
		if _, err := m.FilterDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.BStates != statesAfterFirst {
		t.Errorf("states grew on identical documents: %d → %d", statesAfterFirst, st.BStates)
	}
	// All lookups after the first document must hit.
	if st.Hits-hits1 != st.Lookups-lookups1 {
		t.Errorf("expected 100%% hit ratio on repeats: hits %d/%d",
			st.Hits-hits1, st.Lookups-lookups1)
	}
}

func TestEarlyNotificationReducesStateSize(t *testing.T) {
	// A workload of single-predicate filters: with early notification the
	// machine behaves like a top-down automaton and bottom-up states stay
	// tiny.
	queries := make([]string, 30)
	for i := range queries {
		queries[i] = fmt.Sprintf("/r/e%d[v=%d]", i%5, i)
	}
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&doc, "<e%d><v>%d</v></e%d>", i%5, i, i%5)
	}
	doc.WriteString("</r>")

	plain := New(compileWorkload(t, queries...), Options{TopDown: true})
	early := New(compileWorkload(t, queries...), Options{Early: true})
	rPlain, err := plain.FilterDocument([]byte(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	rEarly, err := early.FilterDocument([]byte(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rPlain) != fmt.Sprint(rEarly) {
		t.Fatalf("early changed results: %v vs %v", rPlain, rEarly)
	}
	if len(rEarly) != 30 {
		t.Fatalf("matches = %v", rEarly)
	}
	if es, ps := early.Stats().AvgStateSize(), plain.Stats().AvgStateSize(); es >= ps {
		t.Errorf("early avg state size %.2f should be below plain %.2f", es, ps)
	}
}

func TestOrderOptimizationReducesStates(t *testing.T) {
	// The Sec. 5 order example: name ≺ age ≺ phone. Feeding permutations
	// of subsets, the unordered machine builds states for every subset
	// of satisfied predicates; the ordered machine only for prefixes.
	d := dtd.MustParse(`
<!ELEMENT person (name, age, phone)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT age (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
`)
	query := `/person[name="Smith" and age=33 and phone=5551234]`
	docs := []string{
		`<person><name>Smith</name><age>33</age><phone>5551234</phone></person>`,
		`<person><age>33</age><phone>5551234</phone></person>`,
		`<person><age>33</age></person>`,
		`<person><phone>5551234</phone></person>`,
		`<person><name>Smith</name><phone>5551234</phone></person>`,
		`<person><name>Smith</name></person>`,
	}
	base := New(compileWorkload(t, query), Options{})
	ord := New(compileWorkload(t, query), Options{Order: d.SiblingOrder()})
	for _, doc := range docs {
		rb, err := base.FilterDocument([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		ro, err := ord.FilterDocument([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rb) != fmt.Sprint(ro) {
			t.Errorf("order changed result on %s: %v vs %v", doc, rb, ro)
		}
	}
	if ord.Stats().BStates >= base.Stats().BStates {
		t.Errorf("order opt states %d should be below basic %d",
			ord.Stats().BStates, base.Stats().BStates)
	}
}

func TestTopDownPruningReducesStates(t *testing.T) {
	// The Sec. 5 motivating workload: /ei[c/text()="ci"]. Without
	// top-down pruning, c elements under the wrong ei create false-lead
	// states.
	var queries []string
	for i := 0; i < 8; i++ {
		queries = append(queries, fmt.Sprintf("/e%d[c/text()=%d]", i, i))
	}
	var doc strings.Builder
	doc.WriteString("<e0>")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&doc, "<c>%d</c>", i)
	}
	doc.WriteString("</e0>")
	base := New(compileWorkload(t, queries...), Options{})
	td := New(compileWorkload(t, queries...), Options{TopDown: true})
	rb, err := base.FilterDocument([]byte(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := td.FilterDocument([]byte(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rb) != "[0]" || fmt.Sprint(rt) != "[0]" {
		t.Fatalf("results: %v, %v", rb, rt)
	}
	if td.Stats().BStates >= base.Stats().BStates {
		t.Errorf("TD states %d should be below basic %d",
			td.Stats().BStates, base.Stats().BStates)
	}
}

func TestPrecomputeValues(t *testing.T) {
	m := New(compileWorkload(t, "/a[b=1]", "/a[b=2]", "/a[c='x']"), Options{PrecomputeValues: true})
	// The three point-interval value states must exist before any input.
	if m.Stats().BStates < 4 { // empty + three value states
		t.Errorf("precomputed states = %d", m.Stats().BStates)
	}
	got, err := m.FilterDocument([]byte("<a><b>2</b></a>"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1]" {
		t.Errorf("matches = %v", got)
	}
}

func TestMixedContentCounting(t *testing.T) {
	m := runningMachine(t, Options{})
	if _, err := m.FilterDocument([]byte("<a>text<b>1</b>more</a>")); err != nil {
		t.Fatal(err)
	}
	if m.Stats().MixedContentEvents == 0 {
		t.Error("mixed content not counted")
	}
	strict := runningMachine(t, Options{StrictMixedContent: true})
	if _, err := strict.FilterDocument([]byte("<a>text<b>1</b></a>")); err == nil {
		t.Error("strict mode should report mixed content")
	}
}

func TestMixedContentUnionSemantics(t *testing.T) {
	// Under union semantics the machine still agrees with the DOM oracle
	// on mixed content.
	query := "/a[text()=1 and b=2]"
	doc := "<a>1<b>2</b></a>"
	m := New(compileWorkload(t, query), Options{})
	got, err := m.FilterDocument([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	e := naive.NewEngine([]*xpath.Filter{xpath.MustParse(query)})
	want, _ := e.FilterDocument([]byte(doc))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("machine %v vs oracle %v", got, want)
	}
}

func TestMaxStatesFlush(t *testing.T) {
	m := New(compileWorkload(t, "/a[b=1]"), Options{MaxStates: 2})
	for i := 0; i < 20; i++ {
		doc := fmt.Sprintf("<a><b>%d</b></a>", i%7)
		if _, err := m.FilterDocument([]byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Flushes == 0 {
		t.Error("expected cache flushes")
	}
	// Flushing must not change answers.
	got, err := m.FilterDocument([]byte("<a><b>1</b></a>"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0]" {
		t.Errorf("post-flush matches = %v", got)
	}
}

func TestTraining(t *testing.T) {
	m := runningMachine(t, Options{TopDown: true})
	training := []byte(`<a><b>1</b><a c="3"><b>1</b></a></a>`)
	if err := m.Train(training); err != nil {
		t.Fatal(err)
	}
	statesAfterTraining := m.Stats().BStates
	if statesAfterTraining < 3 {
		t.Fatalf("training created %d states", statesAfterTraining)
	}
	if m.Stats().Lookups != 0 || m.Stats().Docs != 0 {
		t.Error("training must reset runtime counters")
	}
	got, err := m.FilterDocument(training)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1]" {
		t.Errorf("matches = %v", got)
	}
	st := m.Stats()
	if st.Hits != st.Lookups {
		t.Errorf("trained machine should hit 100%%: %d/%d", st.Hits, st.Lookups)
	}
	if st.BStates != statesAfterTraining {
		t.Errorf("trained machine created states at runtime: %d → %d",
			statesAfterTraining, st.BStates)
	}
}

func TestStatsBasics(t *testing.T) {
	m := runningMachine(t, Options{})
	if _, err := m.FilterDocument([]byte(`<a><b>1</b></a>`)); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Events != 7 { // startDoc, <a>, <b>, text, </b>, </a>, endDoc
		t.Errorf("events = %d", st.Events)
	}
	if st.AvgStateSize() <= 0 {
		t.Errorf("avg state size = %f", st.AvgStateSize())
	}
	if st.HitRatio() < 0 || st.HitRatio() > 1 {
		t.Errorf("hit ratio = %f", st.HitRatio())
	}
}

func TestUnknownLabelsShareStates(t *testing.T) {
	m := New(compileWorkload(t, "//known[x=1]"), Options{})
	if _, err := m.FilterDocument([]byte("<u1><u2><u3/></u2></u1>")); err != nil {
		t.Fatal(err)
	}
	lookups := m.Stats().Lookups
	hits := m.Stats().Hits
	if _, err := m.FilterDocument([]byte("<z9><z8><z7/></z8></z9>")); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	// Different unknown labels map to the same sentinel symbol, so the
	// second document is all cache hits.
	if st.Hits-hits != st.Lookups-lookups {
		t.Errorf("unknown labels missed the cache: %d/%d", st.Hits-hits, st.Lookups-lookups)
	}
}

// TestDifferentialRandom cross-checks the machine against the DOM oracle on
// random workloads, random documents, and every optimization combination.
func TestDifferentialRandom(t *testing.T) {
	combos := allOptionCombos()
	r := rand.New(rand.NewSource(2026))
	trials := 120
	if testing.Short() {
		trials = 25
	}
	if s := os.Getenv("XPUSH_DIFF_TRIALS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			trials = n
		}
	}
	for trial := 0; trial < trials; trial++ {
		nq := 1 + r.Intn(8)
		filters := make([]*xpath.Filter, nq)
		queries := make([]string, nq)
		for i := range filters {
			filters[i] = randomTestFilter(r)
			queries[i] = filters[i].String()
		}
		oracle := naive.NewEngine(filters)
		docs := make([][]byte, 4)
		for i := range docs {
			docs[i] = []byte(randomTestDoc(r))
		}
		var wants []string
		for _, doc := range docs {
			w, err := oracle.FilterDocument(doc)
			if err != nil {
				t.Fatalf("oracle on %s: %v", doc, err)
			}
			wants = append(wants, fmt.Sprint(w))
		}
		for name, opts := range combos {
			a, err := afa.Compile(filters)
			if err != nil {
				t.Fatalf("compile %v: %v", queries, err)
			}
			m := New(a, opts)
			for di, doc := range docs {
				got, err := m.FilterDocument(doc)
				if err != nil {
					t.Fatalf("[%s] machine on %s: %v", name, doc, err)
				}
				if fmt.Sprint(got) != wants[di] {
					t.Fatalf("[%s] mismatch\n queries: %v\n doc: %s\n machine: %v\n oracle:  %s",
						name, queries, doc, got, wants[di])
				}
			}
		}
	}
}

var testLabels = []string{"a", "b", "c", "d", "e"}
var testWords = []string{"x", "y", "zz"}

func randomTestFilter(r *rand.Rand) *xpath.Filter {
	var sb strings.Builder
	if r.Intn(2) == 0 {
		sb.WriteString("/")
	} else {
		sb.WriteString("//")
	}
	writeTestSteps(r, &sb, 1+r.Intn(2), 2)
	f, err := xpath.Parse(sb.String())
	if err != nil {
		panic(err)
	}
	return f
}

func writeTestSteps(r *rand.Rand, sb *strings.Builder, n, depth int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			if r.Intn(4) == 0 {
				sb.WriteString("//")
			} else {
				sb.WriteString("/")
			}
		}
		if r.Intn(8) == 0 {
			sb.WriteString("*")
		} else {
			sb.WriteString(testLabels[r.Intn(len(testLabels))])
		}
		if depth > 0 && r.Intn(2) == 0 {
			sb.WriteString("[")
			writeTestExpr(r, sb, depth-1)
			sb.WriteString("]")
		}
	}
}

func writeTestExpr(r *rand.Rand, sb *strings.Builder, depth int) {
	if depth <= 0 || r.Intn(3) > 0 {
		writeTestAtom(r, sb, depth)
		return
	}
	switch r.Intn(3) {
	case 0:
		writeTestAtom(r, sb, depth)
		sb.WriteString(" and ")
		writeTestExpr(r, sb, depth-1)
	case 1:
		writeTestAtom(r, sb, depth)
		sb.WriteString(" or ")
		writeTestExpr(r, sb, depth-1)
	default:
		sb.WriteString("not(")
		writeTestExpr(r, sb, depth-1)
		sb.WriteString(")")
	}
}

func writeTestAtom(r *rand.Rand, sb *strings.Builder, depth int) {
	switch r.Intn(10) {
	case 0: // existence
		sb.WriteString(testLabels[r.Intn(len(testLabels))])
	case 1: // attribute comparison
		fmt.Fprintf(sb, "@%s=%d", testLabels[r.Intn(len(testLabels))], r.Intn(5))
	case 2: // descendant path
		fmt.Fprintf(sb, ".//%s=%d", testLabels[r.Intn(len(testLabels))], r.Intn(5))
	case 3: // string comparison
		fmt.Fprintf(sb, "%s='%s'", testLabels[r.Intn(len(testLabels))], testWords[r.Intn(len(testWords))])
	case 4: // text()
		fmt.Fprintf(sb, "text()=%d", r.Intn(5))
	case 5: // contains
		fmt.Fprintf(sb, "contains(%s, '%s')", testLabels[r.Intn(len(testLabels))], testWords[r.Intn(len(testWords))])
	case 6: // nested predicate path
		if depth > 0 {
			fmt.Fprintf(sb, "%s[", testLabels[r.Intn(len(testLabels))])
			writeTestExpr(r, sb, depth-1)
			sb.WriteString("]")
		} else {
			fmt.Fprintf(sb, "%s=%d", testLabels[r.Intn(len(testLabels))], r.Intn(5))
		}
	default: // numeric comparison with a random operator
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		fmt.Fprintf(sb, "%s%s%d", testLabels[r.Intn(len(testLabels))], ops[r.Intn(len(ops))], r.Intn(5))
	}
}

func randomTestDoc(r *rand.Rand) string {
	var sb strings.Builder
	writeTestElement(r, &sb, testLabels, 3)
	return sb.String()
}

func writeTestElement(r *rand.Rand, sb *strings.Builder, labels []string, depth int) {
	name := labels[r.Intn(len(labels))]
	sb.WriteByte('<')
	sb.WriteString(name)
	for i := r.Intn(3); i > 0; i-- {
		fmt.Fprintf(sb, ` %s="%d"`, labels[r.Intn(len(labels))], r.Intn(5))
	}
	if depth == 0 || r.Intn(6) == 0 {
		sb.WriteString("/>")
		return
	}
	sb.WriteByte('>')
	switch r.Intn(3) {
	case 0: // numeric or string text
		if r.Intn(2) == 0 {
			fmt.Fprintf(sb, "%d", r.Intn(5))
		} else {
			sb.WriteString(testWords[r.Intn(len(testWords))])
		}
	default:
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			writeTestElement(r, sb, labels, depth-1)
		}
	}
	fmt.Fprintf(sb, "</%s>", name)
}

// TestBytePathMatchesHandlerPath is a machine differential between the two
// parsers: one machine filters each document through its own ByteScanner,
// the other is fed StdParse's (encoding/xml) events through the bytes
// methods. On documents full of labels no filter mentions (which collapse to
// SymOtherElem / SymOtherAttr) both must walk the same states and report
// what the DOM oracle reports, under all 16 combinations of the four
// optimisation flags.
func TestBytePathMatchesHandlerPath(t *testing.T) {
	labels := append([]string{"u", "unknown", "a1", "zz"}, testLabels...)
	r := rand.New(rand.NewSource(20))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		filters := make([]*xpath.Filter, 1+r.Intn(6))
		for i := range filters {
			filters[i] = randomTestFilter(r)
		}
		oracle := naive.NewEngine(filters)
		docs := make([][]byte, 4)
		for i := range docs {
			var sb strings.Builder
			writeTestElement(r, &sb, labels, 3)
			docs[i] = []byte(sb.String())
		}
		for flags := 0; flags < 16; flags++ {
			opts := Options{TopDown: flags&1 != 0, Early: flags&4 != 0, PrecomputeValues: flags&8 != 0}
			if flags&2 != 0 {
				opts.Order = dtd.EmptyOrder()
			}
			machine := func() *Machine {
				a, err := afa.Compile(filters)
				if err != nil {
					t.Fatal(err)
				}
				return New(a, opts)
			}
			byBytes, byStd := machine(), machine()
			for _, doc := range docs {
				want, err := oracle.FilterDocument(doc)
				if err != nil {
					t.Fatalf("oracle on %s: %v", doc, err)
				}
				got, err := byBytes.FilterDocument(doc)
				if err != nil {
					t.Fatalf("flags %04b: byte path on %s: %v", flags, doc, err)
				}
				if err := sax.StdParse(doc, stdEvents{byStd}); err != nil {
					t.Fatalf("flags %04b: StdParse on %s: %v", flags, doc, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(byStd.Results()) != fmt.Sprint(want) {
					t.Fatalf("flags %04b on %s (filters %v)\n bytes:   %v\n std:     %v\n oracle:  %v",
						flags, doc, filters, got, byStd.Results(), want)
				}
				sb, ss := byBytes.Stats(), byStd.Stats()
				if sb.BStates != ss.BStates || sb.TStates != ss.TStates || sb.Lookups != ss.Lookups || sb.Hits != ss.Hits {
					t.Fatalf("flags %04b on %s: the paths walked different machines\n bytes:   %+v\n std:     %+v",
						flags, doc, sb, ss)
				}
			}
		}
	}
}

// stdEvents feeds a StdParse event stream to a machine's bytes methods.
type stdEvents struct{ m *Machine }

func (h stdEvents) StartDocument()           { h.m.StartDocument() }
func (h stdEvents) StartElement(name string) { h.m.StartElementBytes([]byte(name)) }
func (h stdEvents) Text(data string)         { h.m.TextBytes([]byte(data)) }
func (h stdEvents) EndElement(name string)   { h.m.EndElementBytes([]byte(name)) }
func (h stdEvents) EndDocument()             { h.m.EndDocument() }

func TestApproxMemoryBytes(t *testing.T) {
	m := runningMachine(t, Options{})
	if _, err := m.FilterDocument([]byte(`<a><b>1</b><a c="3"><b>1</b></a></a>`)); err != nil {
		t.Fatal(err)
	}
	mem := m.ApproxMemoryBytes()
	// The pop and value tables hold 16 slots of 24 B, the add table 16 of
	// 16 B, the intern index 16 of 12 B, and the interned states 21 ids.
	if want := int64(2*16*24 + 16*16 + 16*12 + 21*4); mem != want {
		t.Fatalf("memory estimate = %d, want %d", mem, want)
	}
	// Growing the machine grows the estimate.
	if _, err := m.FilterDocument([]byte(`<a c="9"><b>1</b></a>`)); err != nil {
		t.Fatal(err)
	}
	if m.ApproxMemoryBytes() < mem {
		t.Error("memory estimate shrank as states grew")
	}
}

// TestEarlyPositionGatingRegression pins a soundness bug found by the
// differential soak: with early notification, the first branching AND state
// of /b[not(b!=0)]//a (whose only navigation-gated conjunct is a
// position-sloppy descendant branch) fired at a nested element that matched
// the predicates but not the navigation. Detection must be restricted to
// states enabled in the current top-down state.
func TestEarlyPositionGatingRegression(t *testing.T) {
	queries := []string{
		"/b[not(b!=0)]//a",
		"/a[b[b=1] and b]//e",
	}
	doc := `<b e="4" c="4"><a><c>zz</c><c d="3"><d/></c></a>` +
		`<c b="3"><e d="2"><b b="2"/><e c="2"/><a d="2"/></e>` +
		`<c a="0"><c c="0"/></c><c c="4" d="2"/></c><b d="2">4</b></b>`
	oracle := naive.NewEngine(func() []*xpath.Filter {
		out := make([]*xpath.Filter, len(queries))
		for i, q := range queries {
			out[i] = xpath.MustParse(q)
		}
		return out
	}())
	want, err := oracle.FilterDocument([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("oracle unexpectedly matched: %v", want)
	}
	for name, opts := range allOptionCombos() {
		m := New(compileWorkload(t, queries...), opts)
		got, err := m.FilterDocument([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("[%s] spurious match: %v", name, got)
		}
	}
	// The positive side still fires early: root b with no b!=0 children
	// and a descendant a.
	m := New(compileWorkload(t, queries[0]), Options{Early: true})
	got, err := m.FilterDocument([]byte(`<b><c/><a/></b>`))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0]" {
		t.Errorf("positive case = %v", got)
	}
}
