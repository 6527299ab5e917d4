package xpushstream

import (
	"fmt"
	"strings"
	"testing"
)

const orderDTD = `
<!ELEMENT orders (order+)>
<!ELEMENT order (customer, item+, total)>
<!ATTLIST order id CDATA #REQUIRED priority (low|high) "low">
<!ELEMENT customer (name, country)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT country (#PCDATA)>
<!ELEMENT item (sku, qty)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT total (#PCDATA)>
`

const orderDoc = `
<orders>
  <order id="17" priority="high">
    <customer><name>Ada</name><country>US</country></customer>
    <item><sku>X1</sku><qty>2</qty></item>
    <total>1500</total>
  </order>
</orders>`

func TestQuickstart(t *testing.T) {
	engine, err := Compile([]string{
		`//order[total > 1000]`,
		`//order[customer/country = "US" and total > 100]`,
		`//order[customer/country = "DE"]`,
		`//order[@priority = "high" and item/qty >= 2]`,
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.FilterDocument([]byte(orderDoc))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 3]" {
		t.Fatalf("matches = %v, want [0 1 3]", got)
	}
	if engine.NumQueries() != 4 {
		t.Errorf("NumQueries = %d", engine.NumQueries())
	}
	if engine.Query(2) != `//order[customer/country = "DE"]` {
		t.Errorf("Query(2) = %s", engine.Query(2))
	}
}

func TestAllConfigsAgree(t *testing.T) {
	d, err := ParseDTD(orderDTD)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`//order[total > 1000]`,
		`//order[customer/country = "US" and total > 100]`,
		`/orders/order[item/sku = "X1"]`,
		`//order[not(customer/country = "DE")]`,
		`//item[qty = 2]`,
	}
	configs := map[string]Config{
		"basic":       {},
		"td":          {TopDownPruning: true},
		"order":       {OrderOptimization: true, DTD: d},
		"early":       {EarlyNotification: true},
		"full":        {TopDownPruning: true, OrderOptimization: true, EarlyNotification: true, Training: true, DTD: d},
		"noprecomp":   {DisablePrecompute: true},
		"td-training": {TopDownPruning: true, Training: true, DTD: d},
	}
	want := ""
	for name, cfg := range configs {
		e, err := Compile(queries, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := e.FilterDocument([]byte(orderDoc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want == "" {
			want = fmt.Sprint(got)
		} else if fmt.Sprint(got) != want {
			t.Errorf("%s: matches %v, others %s", name, got, want)
		}
	}
}

func TestFilterStream(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[v=2]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	stream := "<m><v>1</v></m><m><v>2</v></m><m><v>3</v></m>"
	var per []string
	err = e.FilterStreaming(strings.NewReader(stream), func(matches []int) {
		per = append(per, fmt.Sprint(matches))
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(per) != "[[0] [1] []]" {
		t.Errorf("per-doc = %v", per)
	}
	st := e.Stats()
	if st.Documents != 3 || st.Matches != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFilterStreaming(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[v=2]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// An "endless" stream presented incrementally through a pipe-like
	// reader; bounded memory is the point.
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "<m><v>%d</v></m>\n", i%3)
	}
	var count, matched int
	err = e.FilterStreaming(strings.NewReader(sb.String()), func(m []int) {
		count++
		matched += len(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Errorf("documents = %d", count)
	}
	if matched != 333 { // i%3 ∈ {1,2} matches ⌈...⌉
		t.Errorf("matches = %d", matched)
	}
	// Malformed mid-stream input surfaces as an error.
	err = e.FilterStreaming(strings.NewReader("<m><v>1</v></m><broken>"), func([]int) {})
	if err == nil {
		t.Error("truncated stream should error")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile([]string{"/a", "not an xpath"}, Config{}); err == nil {
		t.Error("bad query must fail compile")
	} else if !strings.Contains(err.Error(), "query 1") {
		t.Errorf("error should name the query: %v", err)
	}
	if _, err := Compile([]string{"/a"}, Config{OrderOptimization: true}); err == nil {
		t.Error("order optimization without DTD must fail")
	}
	if _, err := Compile([]string{"/a"}, Config{Training: true}); err == nil {
		t.Error("training without DTD must fail")
	}
}

func TestValidateQuery(t *testing.T) {
	if err := ValidateQuery("//a[b=1 and not(c)]"); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := ValidateQuery("//a[b//.=1]"); err == nil {
		t.Error("descendant-or-self should be rejected")
	}
	if err := ValidateQuery("(("); err == nil {
		t.Error("garbage should be rejected")
	}
}

func TestStatsAndTraining(t *testing.T) {
	d, err := ParseDTD(orderDTD)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile([]string{`//order[total=1500]`}, Config{TopDownPruning: true, DTD: d})
	if err != nil {
		t.Fatal(err)
	}
	td, err := e.TrainingData()
	if err != nil {
		t.Fatal(err)
	}
	if len(td) == 0 {
		t.Fatal("no training data")
	}
	if err := e.Train(td); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FilterDocument([]byte(orderDoc)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.HitRatio < 0.5 {
		t.Errorf("trained engine hit ratio = %.2f", st.HitRatio)
	}
	if st.States == 0 || st.Events == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMaxStatesBoundedMemory(t *testing.T) {
	var queries []string
	for i := 0; i < 10; i++ {
		queries = append(queries, fmt.Sprintf("/a[b=%d]", i))
	}
	e, err := Compile(queries, Config{MaxStates: 4, DisablePrecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		doc := fmt.Sprintf("<a><b>%d</b></a>", i%10)
		if _, err := e.FilterDocument([]byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Flushes == 0 {
		t.Error("expected flushes")
	}
}

func TestStrictMixedContent(t *testing.T) {
	e, err := Compile([]string{"/a"}, Config{StrictMixedContent: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FilterDocument([]byte("<a>x<b/>y</a>")); err == nil {
		t.Error("mixed content should error in strict mode")
	}
}

func TestPrecomputeEagerFacade(t *testing.T) {
	e, err := Compile([]string{
		"//a[b/text()=1 and .//a[@c>2]]",
		"//a[@c>2 and b/text()=1]",
	}, Config{DisablePrecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.PrecomputeEager(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 22 {
		t.Errorf("eager states = %d, want the paper's 22", n)
	}
	got, err := e.FilterDocument([]byte(`<a><b>1</b><a c="3"><b>1</b></a></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1]" {
		t.Errorf("matches = %v", got)
	}
	// Top-down engines must refuse.
	td, _ := Compile([]string{"/a"}, Config{TopDownPruning: true})
	if _, err := td.PrecomputeEager(100); err == nil {
		t.Error("eager precompute must reject top-down engines")
	}
}

func TestAnalyzeWorkload(t *testing.T) {
	e, err := Compile([]string{
		"//a[b/text()=1 and .//a[@c>2]]",
		"//a[@c>2 and b/text()=1]",
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.AnalyzeWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if r.States != 13 || r.TotalAtomicPreds != 4 {
		t.Errorf("report = %+v", r)
	}
	if r.EquivalentPairs < 2 || r.InconsistentPairs == 0 {
		t.Errorf("report = %+v", r)
	}
}

func TestDTDHelpers(t *testing.T) {
	d, err := ParseDTD(orderDTD)
	if err != nil {
		t.Fatal(err)
	}
	if d.IsRecursive() {
		t.Error("orders DTD is not recursive")
	}
	if d.MaxDepth(50) != 4 {
		t.Errorf("depth = %d", d.MaxDepth(50))
	}
	if _, err := ParseDTD("garbage"); err == nil {
		t.Error("bad DTD should fail")
	}
}

// TestAppendMatchesZeroAllocs pins the one filter call's allocation budget on
// a warm engine (the engine-level sibling of internal/core's
// TestWarmRunZeroAllocs): a reused buffer costs nothing, and neither does a
// nil one on a document nothing matches, the commonest publish on a broker.
func TestAppendMatchesZeroAllocs(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[v=2]", "//m[w>3]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	match := []byte("<m><v>1</v><w>4</w></m>")
	miss := []byte("<m><v>3</v><w>1</w></m>")
	for i := 0; i < 5; i++ { // warm the tables and the driver's buffers
		for _, doc := range [][]byte{match, miss} {
			if _, err := AppendMatches[uint64](e, nil, doc, nil, TraceRoot); err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]uint64, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		buf, err = AppendMatches(e, buf[:0], match, nil, TraceRoot)
	}); n != 0 || err != nil {
		t.Errorf("reused buffer: %.1f allocations per document (err %v), want 0", n, err)
	}
	if fmt.Sprint(buf) != "[0 2]" {
		t.Errorf("matches = %v, want [0 2]", buf)
	}
	var got []int
	if n := testing.AllocsPerRun(100, func() {
		got, err = AppendMatches[int](e, nil, miss, nil, TraceRoot)
	}); n != 0 || err != nil || got != nil {
		t.Errorf("nil buffer, no match: %.1f allocations per document, matches %v (err %v), want 0 and nil", n, got, err)
	}

	// It appends to what dst holds, and takes exactly one document.
	if got, err := AppendMatches(e, []int{7}, match, nil, TraceRoot); err != nil || fmt.Sprint(got) != "[7 0 2]" {
		t.Errorf("AppendMatches onto [7] = %v, %v; want [7 0 2]", got, err)
	}
	two := append(append([]byte(nil), match...), miss...)
	if _, err := AppendMatches[int](e, nil, two, nil, TraceRoot); err == nil {
		t.Error("two documents must be rejected")
	}
}
