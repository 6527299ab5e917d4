package sax

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func events(t *testing.T, input string) []Event {
	t.Helper()
	var c Collector
	if err := ParseBytes([]byte(input), &c); err != nil {
		t.Fatalf("ParseBytes(%q): %v", input, err)
	}
	return c.Events
}

func eventString(evs []Event) string {
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

func TestPaperExample(t *testing.T) {
	// Sec. 2: <a c="3"> <b> 4 </b> </a> produces exactly the listed
	// ten events.
	got := eventString(events(t, `<a c="3"> <b> 4 </b> </a>`))
	want := `startDocument startElement(a) startElement(@c) text("3") endElement(@c) ` +
		`startElement(b) text(" 4 ") endElement(b) endElement(a) endDocument`
	if got != want {
		t.Errorf("events:\n got  %s\n want %s", got, want)
	}
}

func TestRunningExampleDocument(t *testing.T) {
	// The Fig. 3 trace document.
	evs := events(t, `<a> <b> 1 </b> <a c="3"> <b> 1 </b> </a> </a>`)
	var kinds []EventKind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{
		StartDocument, StartElement, StartElement, Text, EndElement,
		StartElement, StartElement, Text, EndElement, StartElement,
		Text, EndElement, EndElement, EndElement, EndDocument,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events: %s", len(kinds), eventString(evs))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (%s)", i, kinds[i], want[i], eventString(evs))
		}
	}
}

func TestSelfClosing(t *testing.T) {
	got := eventString(events(t, `<a><b/><c x="1"/></a>`))
	want := `startDocument startElement(a) startElement(b) endElement(b) ` +
		`startElement(c) startElement(@x) text("1") endElement(@x) endElement(c) ` +
		`endElement(a) endDocument`
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

// TestEqSpaces: Eq ::= S? '=' S? allows space around an attribute's '='.
func TestEqSpaces(t *testing.T) {
	for _, in := range eqCorpus[:4] {
		var std Collector
		if err := StdParse([]byte(in), &std); err != nil {
			t.Fatalf("StdParse(%q): %v", in, err)
		}
		if got, want := eventString(events(t, in)), eventString(std.Events); got != want {
			t.Errorf("%q:\n got  %s\n want %s", in, got, want)
		}
	}
}

func TestEntities(t *testing.T) {
	evs := events(t, `<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos; &#65;&#x42;</a>`)
	if len(evs) != 5 || evs[2].Kind != Text {
		t.Fatalf("events: %s", eventString(evs))
	}
	want := `<x> & "y" 'z' AB`
	if evs[2].Data != want {
		t.Errorf("text = %q, want %q", evs[2].Data, want)
	}
}

func TestEntityInAttribute(t *testing.T) {
	evs := events(t, `<a x="1&lt;2&amp;3"/>`)
	if evs[3].Data != "1<2&3" {
		t.Errorf("attr value = %q", evs[3].Data)
	}
}

func TestCDATA(t *testing.T) {
	evs := events(t, `<a><![CDATA[1 < 2 & raw]]></a>`)
	if evs[2].Data != "1 < 2 & raw" {
		t.Errorf("cdata = %q (%s)", evs[2].Data, eventString(evs))
	}
	// CDATA coalesces with surrounding text.
	evs = events(t, `<a>x<![CDATA[y]]>z</a>`)
	if evs[2].Data != "xyz" {
		t.Errorf("coalesced = %q", evs[2].Data)
	}
}

func TestCommentsAndPIs(t *testing.T) {
	got := eventString(events(t, "<?xml version=\"1.0\"?>\n<!-- c --><a><!-- inside --><b>1</b><?pi data?></a>"))
	want := `startDocument startElement(a) startElement(b) text("1") endElement(b) endElement(a) endDocument`
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

func TestDoctypeSkipped(t *testing.T) {
	input := `<!DOCTYPE a [ <!ELEMENT a (b)> <!ELEMENT b (#PCDATA)> ]><a><b>1</b></a>`
	got := eventString(events(t, input))
	if !strings.HasPrefix(got, "startDocument startElement(a)") {
		t.Errorf("doctype not skipped: %s", got)
	}
}

func TestWhitespaceOnlyTextDropped(t *testing.T) {
	evs := events(t, "<a>\n  <b>1</b>\n  <c> </c>\n</a>")
	for _, e := range evs {
		if e.Kind == Text && strings.TrimSpace(e.Data) == "" {
			t.Errorf("whitespace-only text leaked: %q", e.Data)
		}
	}
}

func TestMultipleDocuments(t *testing.T) {
	evs := events(t, `<a>1</a><b>2</b> <c/>`)
	docs := 0
	for _, e := range evs {
		if e.Kind == StartDocument {
			docs++
		}
	}
	if docs != 3 {
		t.Errorf("documents = %d, want 3 (%s)", docs, eventString(evs))
	}
}

// scannerErrors are malformed inputs ByteScanner rejects with a ParseError.
var scannerErrors = []string{
	`<a>`,
	`<a></b>`,
	`</a>`,
	`<a attr></a>`,
	`<a x=1></a>`,
	`<a x="1></a>`,
	`<a>&bogus;</a>`,
	`<a>&lt</a>`,
	`text outside`,
	`<a></a>junk`,
	`<a><!-- unterminated</a>`,
	`<a><![CDATA[x]]</a>`,
	`<!DOCTYPE a [ <a></a>`,
	`<`,
	`<a><b></a></b>`,
	`<a>&#xZZ;</a>`,
}

func TestScannerErrors(t *testing.T) {
	for _, in := range scannerErrors {
		var c Collector
		if err := ParseBytes([]byte(in), &c); err == nil {
			t.Errorf("ParseBytes(%q) succeeded: %s", in, eventString(c.Events))
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("ParseBytes(%q) error type %T", in, err)
		}
	}
}

// TestMaxDepth: nesting beyond DefaultMaxDepth is rejected, and
// ByteScanner.MaxDepth raises the bound.
func TestMaxDepth(t *testing.T) {
	deep := []byte(strings.Repeat("<a>", 600) + strings.Repeat("</a>", 600))
	if err := ParseBytes(deep, &Collector{}); err == nil {
		t.Fatal("expected depth error")
	}
	s := ByteScanner{MaxDepth: 1000}
	if err := s.Parse(deep, &Collector{}); err != nil {
		t.Fatalf("custom depth: %v", err)
	}
}

func TestIsAttr(t *testing.T) {
	if !IsAttr("@c") || IsAttr("c") || IsAttr("") {
		t.Error("IsAttr misclassifies")
	}
}

func TestDrive(t *testing.T) {
	src := events(t, `<a c="1"><b>2</b></a>`)
	var c Collector
	Drive(src, &c)
	if eventString(c.Events) != eventString(src) {
		t.Error("Drive did not replay faithfully")
	}
}

// TestDifferentialStd judges ByteScanner by encoding/xml (StdParse) over the
// differential corpus: where both accept, the events are identical, and
// every other difference falls in one named deviation. The counts are
// DESIGN.md's "What a verdict checks" table.
func TestDifferentialStd(t *testing.T) {
	want := map[string]int{
		"label-not-a-name":      43030,
		"character-not-a-char":  7204,
		"lt-in-attribute-value": 4800,
		"data-outside-root":     4,
		"deeper-than-max-depth": 1,
		"line-ends":             2,
	}
	got := map[string]int{}
	corpus := differentialCorpus()
	for _, in := range corpus {
		if d := judge(t, []byte(in)); d != nil {
			got[d.name]++
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("acceptance differences over %d inputs:\n got %v\nwant %v", len(corpus), got, want)
	}
}

// randomCorpus returns 400 random well-formed documents.
func randomCorpus() []string {
	r := rand.New(rand.NewSource(99))
	docs := make([]string, 400)
	for i := range docs {
		docs[i] = randomXML(r)
	}
	return docs
}

var randNames = []string{"a", "b", "c", "item", "x"}

func randomXML(r *rand.Rand) string {
	var sb strings.Builder
	writeRandomElement(r, &sb, 3)
	return sb.String()
}

func writeRandomElement(r *rand.Rand, sb *strings.Builder, depth int) {
	name := randNames[r.Intn(len(randNames))]
	sb.WriteByte('<')
	sb.WriteString(name)
	for i := r.Intn(3); i > 0; i-- {
		fmt.Fprintf(sb, ` %s%d="%d"`, randNames[r.Intn(len(randNames))], i, r.Intn(100))
	}
	if depth == 0 || r.Intn(5) == 0 {
		sb.WriteString("/>")
		return
	}
	sb.WriteByte('>')
	if r.Intn(2) == 0 {
		fmt.Fprintf(sb, "%d", r.Intn(1000))
	} else {
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			sb.WriteString("\n  ")
			writeRandomElement(r, sb, depth-1)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("</")
	sb.WriteString(name)
	sb.WriteByte('>')
}

func BenchmarkScanner(b *testing.B) {
	doc := buildBenchDoc(1 << 16)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	var s ByteScanner
	for i := 0; i < b.N; i++ {
		if err := s.Parse(doc, &nopBytes{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStdParser(b *testing.B) {
	doc := buildBenchDoc(1 << 16)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := StdParse(doc, &nullHandler{}); err != nil {
			b.Fatal(err)
		}
	}
}

type nullHandler struct{}

func (nullHandler) StartDocument()      {}
func (nullHandler) StartElement(string) {}
func (nullHandler) Text(string)         {}
func (nullHandler) EndElement(string)   {}
func (nullHandler) EndDocument()        {}

func buildBenchDoc(size int) []byte {
	var sb strings.Builder
	sb.WriteString("<root>")
	i := 0
	for sb.Len() < size {
		fmt.Fprintf(&sb, `<item id="%d"><name>n%d</name><price>%d</price></item>`, i, i, i%97)
		i++
	}
	sb.WriteString("</root>")
	return []byte(sb.String())
}
