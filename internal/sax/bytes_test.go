package sax

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// byteCollector records byte-level events as Events for comparison against
// the pull scanner's output.
type byteCollector struct {
	Events []Event
}

func (c *byteCollector) StartDocument() {
	c.Events = append(c.Events, Event{Kind: StartDocument})
}
func (c *byteCollector) StartElementBytes(name []byte) {
	c.Events = append(c.Events, Event{Kind: StartElement, Name: string(name)})
}
func (c *byteCollector) TextBytes(data []byte) {
	c.Events = append(c.Events, Event{Kind: Text, Data: string(data)})
}
func (c *byteCollector) EndElementBytes(name []byte) {
	c.Events = append(c.Events, Event{Kind: EndElement, Name: string(name)})
}
func (c *byteCollector) EndDocument() {
	c.Events = append(c.Events, Event{Kind: EndDocument})
}

func diffEventStreams(t *testing.T, input string) {
	t.Helper()
	var sc Collector
	strErr := Parse([]byte(input), &sc)
	var bc byteCollector
	byteErr := ParseBytes([]byte(input), &bc)
	if (strErr == nil) != (byteErr == nil) {
		t.Fatalf("acceptance mismatch on %q: scanner err=%v, byte scanner err=%v",
			input, strErr, byteErr)
	}
	// On errors, the event prefixes up to the shorter stream must agree
	// (delivery points differ slightly because the pull scanner queues
	// attribute triples before reporting a later error in the same tag).
	n := len(sc.Events)
	if len(bc.Events) < n {
		n = len(bc.Events)
	}
	if strErr == nil && (len(sc.Events) != len(bc.Events)) {
		t.Fatalf("event count mismatch on %q: scanner %d, byte scanner %d\n%v\n%v",
			input, len(sc.Events), len(bc.Events), sc.Events, bc.Events)
	}
	for i := 0; i < n; i++ {
		if sc.Events[i] != bc.Events[i] {
			t.Fatalf("event %d mismatch on %q:\n scanner: %v\n byte:    %v",
				i, input, sc.Events[i], bc.Events[i])
		}
	}
}

// TestByteScannerMatchesScanner drives both parsers over a corpus covering
// every syntactic feature and requires identical event streams. On the
// DOCTYPE declarations whose literals or comments hold '>', '[' or ']',
// encoding/xml (StdParse) must agree as well.
func TestByteScannerMatchesScanner(t *testing.T) {
	for _, doc := range append(featureCorpus(), runCorpus()...) {
		diffEventStreams(t, doc)
	}
	for _, doc := range doctypeCorpus {
		var std Collector
		stdErr := StdParse([]byte(doc), &std)
		var bc byteCollector
		byteErr := ParseBytes([]byte(doc), &bc)
		if stdErr != nil || byteErr != nil || fmt.Sprint(std.Events) != fmt.Sprint(bc.Events) {
			t.Errorf("%q: StdParse %v, err %v; byte scanner %v, err %v", doc, std.Events, stdErr, bc.Events, byteErr)
		}
	}
}

// doctypeCorpus holds DOCTYPE declarations that close only past a quoted
// literal or a comment holding markup characters.
var doctypeCorpus = []string{
	`<!DOCTYPE a SYSTEM "x>y"><a/>`,
	`<!DOCTYPE a [<!ENTITY e "]">]><a/>`,
	`<!DOCTYPE a PUBLIC '-//x>//' "y]>"><a>1</a>`,
	`<!DOCTYPE a [<!-- ]> --><!ELEMENT a ANY>]><a/>`,
	`<!DOCTYPE a [<!ENTITY e '">'><!ATTLIST a b CDATA "[">]><a b="1"/>`,
}

// featureCorpus is the differential corpus but for runCorpus: every
// syntactic feature, the malformed inputs both scanners must reject,
// doctypeCorpus and edgeCorpus.
func featureCorpus() []string {
	corpus := []string{
		`<a/>`,
		`<a></a>`,
		`<a c="3"> <b> 4 </b> </a>`,
		`<a><b/><c x="1"/></a>`,
		`<a>&lt;x&gt; &amp; &#65;</a>`,
		`<a>&#x41;&#x1F600;</a>`,
		`<a><![CDATA[1 < 2]]></a>`,
		`<a>pre<![CDATA[mid]]>post</a>`,
		`<a><![CDATA[]]></a>`,
		`<a>one<!-- c -->two</a>`,
		`<?xml version="1.0"?><!-- c --><a/>`,
		`<!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b>1</b></a>`,
		`<a>1</a><b>2</b>`,
		`<a x='1&quot;'/>`,
		`<a x="&amp;&lt;">v</a>`,
		"<a>\n  <b> </b>\n</a>",
		`<a x="1" y="2" z="3">mixed<b/>tail</a>`,
		`<root><item id="1"><name>n1</name><price>17</price></item></root>`,
		`<a>text&amp;more&amp;even more</a>`,
		`<a>   </a>`,
		`<a><b>x</b><b>y</b></a>`,
		strings.Repeat("<a>", 40) + "z" + strings.Repeat("</a>", 40),
		// Malformed inputs: acceptance must agree.
		`<a`,
		`</a>`,
		`<a>&bogus;</a>`,
		`<a><b></a></b>`,
		`<a x=1></a>`,
		`<a x></a>`,
		`<a><b>`,
		`text outside`,
		`<a>&#xZZ;</a>`,
		`<a>&toolongentityname;</a>`,
		`<!-- unterminated`,
		`<![CDATA[ orphan ]]>`,
		`<a><![CDATA[ unterminated`,
		strings.Repeat("<a>", 600),
		`<!DOCTYPE a SYSTEM "x>`,
		`<!DOCTYPE a [<!-- ]>`,
	}
	corpus = append(corpus, doctypeCorpus...)
	return append(corpus, edgeCorpus()...)
}

// edgeCorpus holds the hand-written cases for the byte scanner's table and
// word-at-a-time paths: blank text under bytes.TrimSpace's Unicode rule,
// entity-dense runs, unusual name bytes, close tags that must leave the
// open-tag fast path, and deep nesting.
func edgeCorpus() []string {
	docs := []string{
		// Text that TrimSpace empties, or does not, outside the four
		// bytes the scanner itself treats as space.
		"<a>\u00a0</a>",
		"<a>\u0085</a>",
		"<a>\u2003x\u2003</a>",
		"<a>\v</a>",
		"<a>\f1</a>",
		"<a>\u00a0<![CDATA[\u00a0]]>\u00a0</a>",
		"<a>\xc2</a>",
		"<a>\x85</a>",
		"<a v=\"\u00a0\"/>",
		// Entity-dense text and attribute values.
		`<a>&amp;&lt;&gt;&quot;&apos;&#65;&#x42;&amp;x&amp;</a>`,
		"<a>" + strings.Repeat("&amp;", 13) + "</a>",
		"<a>" + strings.Repeat("x&lt;", 11) + "y</a>",
		`<a v="&amp;&lt;&#65;&#x42;&gt;&quot;"/>`,
		`<a v='&apos;&apos;x&amp;'>&amp;&amp;</a>`,
		`<a v="` + strings.Repeat("&#x263A;", 7) + `"/>`,
		`<a v="x&amp`,
		`<a>x&amp`,
		// Names holding bytes >= 0x80 and control bytes.
		"<\u00e9l\u00e8ve>1</\u00e9l\u00e8ve>",
		"<a\x01b>1</a\x01b>",
		"<a\x7f/>",
		"<\xff\xfe>x</\xff\xfe>",
		"<a\v\fb/>",
		"<a b\x01c=\"1\" \xc3\xa9=\"2\"/>",
		"<a\x00>z</a\x00>",
		// Close tags outside the open-tag fast path.
		`<a></a >`,
		"<a></a\t>",
		`</a >`,
		`<ab></a>`,
		`<a></ab>`,
		`<a></a`,
		`<a></`,
		`<a></a/>`,
		`<a/b></a/b>`,
		`<abc></ab>c>`,
		`<a><b></b ></a>`,
		// Deep nesting with names of varying length.
		strings.Repeat("<a>", 200) + "z" + strings.Repeat("</a>", 200),
	}
	var names []string
	for i := 0; i < 200; i++ {
		names = append(names, fmt.Sprintf("n%d", i%13*997))
	}
	var deep strings.Builder
	for _, name := range names {
		deep.WriteString("<" + name + ` k="` + name + `">`)
	}
	deep.WriteString("t")
	for i := len(names) - 1; i >= 0; i-- {
		deep.WriteString("</" + names[i] + ">")
	}
	return append(docs, deep.String())
}

// runStops are the bytes that end a run somewhere in the scanner, plus a
// control byte and a non-ASCII byte, which pass the word tests as false
// candidates.
const runStops = "<&>/=\"' \t\x01\xc2"

// runForms place a run ($) as text, an element name, an attribute name and a
// quoted attribute value.
var runForms = []string{`<a>$</a>`, `<$/>`, `<$>1</$>`, `<a $="1"/>`, `<a v="$"/>`, `<a v='$'/>`}

// runCorpus returns documents whose text runs, names and attribute values
// are 1 to 24 bytes long with one of runStops at each position, or none,
// inside a wrapper whose name length moves the run across all eight offsets
// of a word.
func runCorpus() []string {
	var docs []string
	for pad := 1; pad <= 8; pad++ {
		w := strings.Repeat("w", pad)
		for n := 1; n <= 24; n++ {
			runs := []string{strings.Repeat("x", n)}
			for p := 0; p < n; p++ {
				for _, c := range []byte(runStops) {
					runs = append(runs, strings.Repeat("x", p)+string(c)+strings.Repeat("x", n-p-1))
				}
			}
			for _, run := range runs {
				for _, form := range runForms {
					docs = append(docs, "<"+w+">"+strings.ReplaceAll(form, "$", run)+"</"+w+">")
				}
			}
		}
	}
	return docs
}

// TestStopIndex checks the word-at-a-time stop search against a byte loop
// over the class table, for every class, every byte value at every position
// of buffers up to 24 bytes, and every start offset.
func TestStopIndex(t *testing.T) {
	classes := []uint8{stopName, stopAttr, stopText, stopQuot, stopApos}
	buf := make([]byte, 24)
	for _, class := range classes {
		for n := 0; n <= len(buf); n++ {
			for p := 0; p < n; p++ {
				for c := 0; c < 256; c++ {
					for k := range buf[:n] {
						buf[k] = 'x'
					}
					buf[p] = byte(c)
					for i := 0; i <= n; i++ {
						want := i
						for want < n && byteClass[buf[want]]&class == 0 {
							want++
						}
						if got := stopIndex(buf[:n], i, class); got != want {
							t.Fatalf("class %#x, %q from %d: got %d, want %d", class, buf[:n], i, got, want)
						}
					}
				}
			}
		}
	}
	// The table itself: each stop class holds exactly the bytes its
	// comment names.
	want := map[uint8]string{
		stopName: " \t\n\r>/",
		stopAttr: " \t\n\r=>",
		stopText: "<&",
		stopQuot: "\"&",
		stopApos: "'&",
	}
	for class, members := range want {
		for c := 0; c < 256; c++ {
			if in := byteClass[c]&class != 0; in != strings.ContainsRune(members, rune(c)) || in && c >= 0x80 {
				t.Errorf("class %#x: byte %#x membership %v", class, c, in)
			}
		}
	}
	for c := 0; c < 256; c++ {
		if got := byteClass[c]&xmlSpace != 0; got != isSpace(byte(c)) {
			t.Errorf("space class: byte %#x membership %v", c, got)
		}
		// mayTrim must cover every byte that can start a run
		// bytes.TrimSpace shortens.
		if byteClass[c]&mayTrim == 0 && len(bytes.TrimSpace([]byte{byte(c), 'x'})) != 2 {
			t.Errorf("byte %#x can be trimmed but is not in mayTrim", c)
		}
	}
}

// nopBytes counts events without retaining them.
type nopBytes struct{ events int }

func (h *nopBytes) StartDocument()                { h.events++ }
func (h *nopBytes) StartElementBytes(name []byte) { h.events++ }
func (h *nopBytes) TextBytes(data []byte)         { h.events++ }
func (h *nopBytes) EndElementBytes(name []byte)   { h.events++ }
func (h *nopBytes) EndDocument()                  { h.events++ }

// TestByteScannerZeroAllocs pins the scanner's own allocation budget: a
// reused ByteScanner parses a protein-like document with attributes,
// entities, CDATA, a comment and a processing instruction without
// allocating once its buffers have grown.
func TestByteScannerZeroAllocs(t *testing.T) {
	doc := []byte(`<?xml version="1.0"?><!-- PIR entry -->
<ProteinEntry id="CCHU" type='complete'>
  <header><uid>CCHU</uid><accession>A31764 &amp; A05150</accession><created_date>17-Mar-1987</created_date></header>
  <protein><name>cytochrome c &lt;human&gt;</name><alt-name note="&quot;cyt c&quot;">CYCS</alt-name></protein>
  <organism><source>Homo sapiens</source><common>man<![CDATA[ & <woman> ]]>kind</common></organism>
  <reference><refinfo refid="A31764"><authors><author>Evans, M.J.</author><author>Scarpulla, R.C.</author></authors>
    <citation>Proc. Natl. Acad. Sci. U.S.A. 85, 9625&#8211;9629, 1988</citation><year>1988</year></refinfo></reference>
  <sequence length="104" mw="11749">GDVEKGKKIFIMKCSQCHTVEKGGKHKTGPNLHGLFGRKTGQAPGYSYTAANKNKGIIWGEDTLMEYLENPKKYIPGTKMIFVGIKKKEERADLIAYLKKATNE</sequence>
</ProteinEntry>`)
	var s ByteScanner
	var h nopBytes
	if err := s.Parse(doc, &h); err != nil {
		t.Fatal(err)
	}
	warm := h.events
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Parse(doc, &h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reused ByteScanner: %v allocs per document, want 0", allocs)
	}
	if warm < 50 {
		t.Fatalf("warm-up parse delivered %d events; the document is not being scanned", warm)
	}

	// The same budget holds with subtrees skipped (SkipElement).
	sk := skipBytes{s: &s}
	if err := s.Parse(doc, &sk); err != nil {
		t.Fatal(err)
	}
	if sk.skipped == 0 || sk.events >= warm {
		t.Fatalf("skipping parse: %d skipped, %d of %d events delivered; nothing was skipped", sk.skipped, sk.events, warm)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := s.Parse(doc, &sk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reused ByteScanner, skipping: %v allocs per document, want 0", allocs)
	}
}

// skipName picks the elements and attributes a skipping handler skips: those
// whose name's FNV-1a hash has bit 16 set.
func skipName(name []byte) bool {
	h := uint32(2166136261)
	for _, c := range name {
		h = (h ^ uint32(c)) * 16777619
	}
	return h&(1<<16) != 0
}

// skipBytes counts the events it receives and skips every subtree skipName
// picks.
type skipBytes struct {
	s       *ByteScanner
	events  int
	skipped int
}

func (h *skipBytes) StartDocument() { h.events++ }
func (h *skipBytes) StartElementBytes(name []byte) {
	h.events++
	if skipName(name) {
		h.s.SkipElement()
		h.skipped++
	}
}
func (h *skipBytes) TextBytes([]byte)       { h.events++ }
func (h *skipBytes) EndElementBytes([]byte) { h.events++ }
func (h *skipBytes) EndDocument()           { h.events++ }

// skipCollector is byteCollector with skipName's subtrees skipped.
type skipCollector struct {
	byteCollector
	s *ByteScanner
}

func (c *skipCollector) StartElementBytes(name []byte) {
	c.byteCollector.StartElementBytes(name)
	if skipName(name) {
		c.s.SkipElement()
	}
}

// withoutSkipped is the full event stream minus the subtrees skipName picks:
// what a skipping handler must receive. A subtree's start event stays, as
// its handler saw it before asking to skip.
func withoutSkipped(full []Event) []Event {
	var out []Event
	depth := 0 // open elements inside the skipped subtree, 0 outside one
	for _, e := range full {
		switch {
		case depth > 0:
			switch e.Kind {
			case StartElement:
				depth++
			case EndElement:
				depth--
			}
		case e.Kind == StartElement && skipName([]byte(e.Name)):
			out = append(out, e)
			depth = 1
		default:
			out = append(out, e)
		}
	}
	return out
}

// TestByteScannerReuse checks that one ByteScanner instance parses multiple
// buffers correctly (its buffers are recycled between calls).
func TestByteScannerReuse(t *testing.T) {
	var s ByteScanner
	docs := []string{
		`<a b="1">x&amp;y</a>`,
		`<c><d/></c>`,
		`<e>plain</e>`,
	}
	for _, doc := range docs {
		var sc Collector
		if err := Parse([]byte(doc), &sc); err != nil {
			t.Fatal(err)
		}
		var bc byteCollector
		if err := s.Parse([]byte(doc), &bc); err != nil {
			t.Fatalf("%q: %v", doc, err)
		}
		if len(sc.Events) != len(bc.Events) {
			t.Fatalf("%q: event count %d vs %d", doc, len(sc.Events), len(bc.Events))
		}
		for i := range sc.Events {
			if sc.Events[i] != bc.Events[i] {
				t.Fatalf("%q event %d: %v vs %v", doc, i, sc.Events[i], bc.Events[i])
			}
		}
	}
}

// FuzzByteScanner fuzzes the byte-level scanner differentially against the
// string scanner: both must accept or reject the same inputs, and on
// accepted inputs produce identical event streams.
func FuzzByteScanner(f *testing.F) {
	seeds := []string{
		`<a c="3"> <b> 4 </b> </a>`,
		`<a><b/><c x="1"/></a>`,
		`<a>&lt;x&gt; &amp; &#65;</a>`,
		`<a><![CDATA[1 < 2]]></a>`,
		`<?xml version="1.0"?><!-- c --><a/>`,
		`<!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b>1</b></a>`,
		`<a>1</a><b>2</b>`,
		`<a x='1&quot;'/>`,
		`<a>&bogus;</a>`,
		"<a>\n  <b> </b>\n</a>",
		`<a x="1" y="2" z="3">mixed<b/>tail</a>`,
	}
	seeds = append(seeds, doctypeCorpus...)
	seeds = append(seeds, edgeCorpus()...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var sc Collector
		strErr := Parse([]byte(input), &sc)
		var bc byteCollector
		byteErr := ParseBytes([]byte(input), &bc)
		if (strErr == nil) != (byteErr == nil) {
			t.Fatalf("acceptance mismatch: scanner err=%v, byte scanner err=%v", strErr, byteErr)
		}
		if strErr != nil {
			// Compare the common event prefix only: the scanners may
			// detect the error at slightly different queue/callback
			// points.
			n := len(sc.Events)
			if len(bc.Events) < n {
				n = len(bc.Events)
			}
			sc.Events = sc.Events[:n]
			bc.Events = bc.Events[:n]
		}
		if len(sc.Events) != len(bc.Events) {
			t.Fatalf("event count mismatch: %d vs %d\n%v\n%v",
				len(sc.Events), len(bc.Events), sc.Events, bc.Events)
		}
		for i := range sc.Events {
			if sc.Events[i] != bc.Events[i] {
				t.Fatalf("event %d: %v vs %v", i, sc.Events[i], bc.Events[i])
			}
		}

		// Skipping changes what is delivered, never the verdict: the same
		// error (message and offset) or none, and the full stream minus the
		// skipped subtrees.
		var full byteCollector
		fullErr := ParseBytes([]byte(input), &full)
		var s ByteScanner
		sk := skipCollector{s: &s}
		skipErr := s.Parse([]byte(input), &sk)
		if fmt.Sprint(fullErr) != fmt.Sprint(skipErr) {
			t.Fatalf("skipping changed the verdict: full scan err=%v, skipping err=%v", fullErr, skipErr)
		}
		want := withoutSkipped(full.Events)
		if fmt.Sprint(want) != fmt.Sprint(sk.Events) {
			t.Fatalf("skipping delivered\n %v\nwant the full stream minus skipped subtrees\n %v", sk.Events, want)
		}
	})
}

// skipNamed skips every element or attribute called name.
type skipNamed struct {
	byteCollector
	s    *ByteScanner
	name string
}

func (c *skipNamed) StartElementBytes(name []byte) {
	c.byteCollector.StartElementBytes(name)
	if string(name) == c.name {
		c.s.SkipElement()
	}
}

// TestSkipElement pins what SkipElement withholds: the skipped element's
// attributes, content and close tag, or the skipped attribute's value and
// end; the document boundaries are still delivered, and the skipped input is
// still checked.
func TestSkipElement(t *testing.T) {
	for _, tc := range []struct{ skip, doc, want string }{
		{"x", `<a><x k="1"><b>2</b>t</x><c/></a>`,
			"[startDocument startElement(a) startElement(x) startElement(c) endElement(c) endElement(a) endDocument]"},
		{"x", `<x><b/></x>`, "[startDocument startElement(x) endDocument]"},
		{"x", `<a><x/>1</a>`, `[startDocument startElement(a) startElement(x) text("1") endElement(a) endDocument]`},
		{"@k", `<a k="1" j="2">t</a>`,
			`[startDocument startElement(a) startElement(@k) startElement(@j) text("2") endElement(@j) text("t") endElement(a) endDocument]`},
	} {
		var s ByteScanner
		c := skipNamed{s: &s, name: tc.skip}
		if err := s.Parse([]byte(tc.doc), &c); err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		if got := fmt.Sprint(c.Events); got != tc.want {
			t.Errorf("%s skipping %s:\n got %s\nwant %s", tc.doc, tc.skip, got, tc.want)
		}
	}
	for _, doc := range []string{`<a><x><b></x></a>`, `<a><x k="&bad;"/></a>`, `<a><x>&#xZ;</x></a>`} {
		var full byteCollector
		want := ParseBytes([]byte(doc), &full)
		var s ByteScanner
		got := s.Parse([]byte(doc), &skipNamed{s: &s, name: "x"})
		if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: skipping err %v, full scan err %v; want the same error", doc, got, want)
		}
	}
}
