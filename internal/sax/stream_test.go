package sax

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func splitAll(t *testing.T, input string) []string {
	t.Helper()
	var out []string
	err := StreamDocuments(strings.NewReader(input), func(doc []byte) error {
		out = append(out, string(doc))
		return nil
	})
	if err != nil {
		t.Fatalf("StreamDocuments(%q): %v", input, err)
	}
	return out
}

func TestSplitterBasic(t *testing.T) {
	docs := splitAll(t, `<a>1</a><b><c/></b> <d x="1"/>`)
	if len(docs) != 3 {
		t.Fatalf("docs = %v", docs)
	}
	if docs[0] != "<a>1</a>" || docs[2] != `<d x="1"/>` {
		t.Errorf("docs = %q", docs)
	}
}

func TestSplitterTrickyContent(t *testing.T) {
	input := `<?xml version="1.0"?>
<!DOCTYPE a [ <!ELEMENT a ANY> ]>
<a attr="quoted > bracket" other='/>'>
  <!-- a comment with </a> inside -->
  <![CDATA[ raw </a> text ]]>
  <b>text</b>
</a><second/>`
	docs := splitAll(t, input)
	if len(docs) != 2 {
		t.Fatalf("docs = %d: %q", len(docs), docs)
	}
	if !strings.Contains(docs[0], "CDATA") || !strings.HasSuffix(docs[0], "</a>") {
		t.Errorf("doc 0 = %q", docs[0])
	}
	if strings.TrimSpace(docs[1]) != "<second/>" {
		t.Errorf("doc 1 = %q", docs[1])
	}
	// The split documents must themselves parse.
	for _, d := range docs {
		var c Collector
		if err := Parse([]byte(d), &c); err != nil {
			t.Errorf("split doc unparsable: %v\n%s", err, d)
		}
	}
}

func TestSplitterSelfClosingRoot(t *testing.T) {
	docs := splitAll(t, `<a/><b/>`)
	if len(docs) != 2 || docs[0] != "<a/>" || docs[1] != "<b/>" {
		t.Errorf("docs = %q", docs)
	}
}

func TestSplitterNestedSameName(t *testing.T) {
	docs := splitAll(t, `<a><a><a/></a></a><a/>`)
	if len(docs) != 2 {
		t.Fatalf("docs = %q", docs)
	}
}

func TestSplitterEmpty(t *testing.T) {
	if docs := splitAll(t, "   \n  "); len(docs) != 0 {
		t.Errorf("docs = %q", docs)
	}
	if docs := splitAll(t, ""); len(docs) != 0 {
		t.Errorf("docs = %q", docs)
	}
}

func TestSplitterErrors(t *testing.T) {
	bad := []string{
		`<a><b></b>`,      // unclosed root
		`<a`,              // truncated tag
		`</a>`,            // end tag first
		`<a><!-- nope`,    // unterminated comment
		`<a attr="open`,   // unterminated attribute
		`<a><![CDATA[ x`,  // unterminated CDATA
		`<?pi never ends`, // unterminated PI
	}
	for _, in := range bad {
		err := StreamDocuments(strings.NewReader(in), func([]byte) error { return nil })
		if err == nil {
			t.Errorf("StreamDocuments(%q) succeeded", in)
		}
	}
}

func TestSplitterSizeBound(t *testing.T) {
	// Only a document's first 100 bytes are checked, whatever the reads: an
	// error in them is reported, one past them is not.
	x := strings.Repeat("x", 1000)
	for _, tc := range []struct{ in, err string }{
		{"<a>" + x + "</a>", "xml: document exceeds size bound of 100 bytes at offset 100"},
		{"<a>" + x + "</b>", "xml: document exceeds size bound of 100 bytes at offset 100"},
		{"<a/> <b>" + x + "</b>", "xml: document exceeds size bound of 100 bytes at offset 105"},
		{"<a><!--" + x, "xml: document exceeds size bound of 100 bytes at offset 100"},
		{"<a x y" + x, "xml: attribute without value in <a> at offset 0"},
		{"<a></b>" + x, "xml: mismatched end tag: expected </a>, got </b> at offset 3"},
		{strings.Repeat(" ", 1000) + "<a>" + x[:93] + "</a>", "<nil>"},
	} {
		for name, r := range readers(tc.in, 0) {
			err := StreamDocumentsLimit(r, 100, func([]byte) error { return nil })
			if fmt.Sprint(err) != tc.err {
				t.Errorf("%.12q… (%s reads): err %v, want %s", tc.in, name, err, tc.err)
			}
		}
	}
}

// repeatByte reads as the one byte, forever.
type repeatByte byte

func (c repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestStreamDocumentsBoundsMemory: a document that does not close within
// the size bound fails there, however it arrives, before the stream has
// been read much further: within a construct whose '>' never comes too.
func TestStreamDocumentsBoundsMemory(t *testing.T) {
	for _, prefix := range []string{`<a v="`, `<a><!--`, `<a>`, `<a `, `<!--`} {
		for _, oneByte := range []bool{false, true} {
			r := &countingReader{r: io.MultiReader(strings.NewReader(prefix), io.LimitReader(repeatByte('x'), 1<<20))}
			var in io.Reader = r
			if oneByte {
				in = iotest.OneByteReader(r)
			}
			err := StreamDocumentsLimit(in, 100, func([]byte) error { return nil })
			if want := "xml: document exceeds size bound of 100 bytes at offset 100"; fmt.Sprint(err) != want || r.n > 128<<10 {
				t.Errorf("%q then x… (one byte a read: %v): err %v after %d bytes read, want %s within 128 KiB", prefix, oneByte, err, r.n, want)
			}
		}
	}
}

func TestSplitterHandlerError(t *testing.T) {
	wantErr := io.ErrClosedPipe
	err := StreamDocuments(strings.NewReader("<a/><b/>"), func(doc []byte) error {
		return wantErr
	})
	if err != wantErr {
		t.Errorf("err = %v", err)
	}
}

// TestSplitterAgainstScanner: splitting then parsing per document must give
// the same events as parsing the concatenated stream at once.
func TestSplitterAgainstScanner(t *testing.T) {
	input := `<a c="1"><b>t</b></a><x><!-- c --><y p='2'>v</y></x><z/>`
	var whole Collector
	if err := Parse([]byte(input), &whole); err != nil {
		t.Fatal(err)
	}
	var split Collector
	err := StreamDocuments(strings.NewReader(input), func(doc []byte) error {
		return Parse(doc, &split)
	})
	if err != nil {
		t.Fatal(err)
	}
	if eventString(whole.Events) != eventString(split.Events) {
		t.Errorf("events differ:\n whole %s\n split %s",
			eventString(whole.Events), eventString(split.Events))
	}
}

func TestSplitterLargeStream(t *testing.T) {
	// Many small documents, over more than one read window.
	var sb strings.Builder
	const n = 5000
	for i := 0; i < n; i++ {
		sb.WriteString(`<doc id="`)
		sb.WriteString(strings.Repeat("x", i%17))
		sb.WriteString(`"><v>1</v></doc>`)
	}
	count := 0
	err := StreamDocuments(strings.NewReader(sb.String()), func(doc []byte) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
}

// chunkReader returns its data in reads of sizes[i%len(sizes)] bytes.
type chunkReader struct {
	data  []byte
	sizes []int
	i     int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(r.sizes[r.i%len(r.sizes)], len(p), len(r.data))
	r.i++
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// randomSizes are the read sizes of the random chunking, 1 to 64 bytes.
var randomSizes = func() []int {
	rnd := rand.New(rand.NewSource(1))
	sizes := make([]int, 61)
	for i := range sizes {
		sizes[i] = 1 + rnd.Intn(64)
	}
	return sizes
}()

// readers returns the input behind every chunking the stream must be
// indifferent to: one read, one byte a read, iotest.HalfReader, fixed reads
// of 2 to 64 bytes and random ones, starting at randomSizes[seed].
func readers(input string, seed int) map[string]io.Reader {
	rs := map[string]io.Reader{
		"whole":    strings.NewReader(input),
		"one-byte": iotest.OneByteReader(strings.NewReader(input)),
		"half":     iotest.HalfReader(strings.NewReader(input)),
		"random":   &chunkReader{data: []byte(input), sizes: randomSizes, i: seed},
	}
	for _, n := range []int{2, 3, 5, 7, 8, 13, 64} {
		rs[fmt.Sprintf("fixed-%d", n)] = &chunkReader{data: []byte(input), sizes: []int{n}}
	}
	return rs
}

// wholeDocuments parses input with ParseBytes and returns each complete
// document's events, and the verdict.
func wholeDocuments(input string) ([][]Event, error) {
	var c byteCollector
	err := ParseBytes([]byte(input), &c)
	var docs [][]Event
	begin := 0
	for i, e := range c.Events {
		if e.Kind == EndDocument {
			docs = append(docs, c.Events[begin:i+1])
			begin = i + 1
		}
	}
	return docs, err
}

// checkStream requires StreamDocuments to hand over, from each reader of
// input, the documents ParseBytes delivers on input whole, each parsing to
// the same events, and to fail with the same error: message and stream
// offset.
func checkStream(t *testing.T, input string, rs map[string]io.Reader) {
	t.Helper()
	want, wantErr := wholeDocuments(input)
	for name, r := range rs {
		var got [][]Event
		err := StreamDocuments(r, func(doc []byte) error {
			var c byteCollector
			if err := ParseBytes(doc, &c); err != nil {
				return fmt.Errorf("handed-over document %q does not parse: %v", doc, err)
			}
			got = append(got, c.Events)
			return nil
		})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q (%s reads): stream err %v, ParseBytes err %v", input, name, err, wantErr)
		}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%q (%s reads): stream documents\n %v\nParseBytes documents\n %v", input, name, got, want)
		}
	}
}

// streamCases are the inputs around document boundaries: markup and junk
// between and after documents, and streams cut inside every construct.
var streamCases = []string{
	`<a/><!-- end -->`,
	`<a/><?pi end?>`,
	`<a/><!-- end`,
	`<a/><?pi`,
	`<a/>junk<b/>`,
	`<a/> <!-- c --> <?p?> <b/>`,
	`<a/><!DOCTYPE b><b/>`,
	`<a/></a>`,
	`<a/><`,
	`<a/><!`,
	`<a/><!-`,
	`<a/><![CDA`,
	`<a/><!DOC`,
	`<a/><!x>`,
	`<a/><![CDATA[x]]>`,
	"<a/>\n\t ",
	`<!-- only a comment -->`,
	`<a>&amp`,
	`<a x="&amp`,
	`<a x="&bad;"><b/></a>`,
	`<a x`,
	`<a x=`,
	`<a x="1"/`,
	`<a/`,
	`<a></a`,
	`<a></b>`,
	`<a><b></b></a>junk`,
	"<a> </a> ",
}

// TestStreamDocumentsMatchesParseBytes runs the differential corpus, the
// boundary cases and generated streams through every chunking. runCorpus's
// documents that parse go in as streams of 400, and those that do not one
// by one, each through one of three chunkings.
func TestStreamDocumentsMatchesParseBytes(t *testing.T) {
	corpus := append(featureCorpus(), streamCases...)
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		corpus = append(corpus, randomStream(rnd, corpus))
	}
	for i, input := range corpus {
		checkStream(t, input, readers(input, i))
	}
	if testing.Short() {
		return
	}
	var batch []string
	flush := func() {
		stream := strings.Join(batch, " ")
		checkStream(t, stream, readers(stream, len(stream)))
		batch = batch[:0]
	}
	for i, doc := range runCorpus() {
		if ParseBytes([]byte(doc), discard{}) != nil {
			name := [...]string{"whole", "one-byte", "random"}[i%3]
			checkStream(t, doc, map[string]io.Reader{name: readers(doc, i)[name]})
			continue
		}
		if batch = append(batch, doc); len(batch) == 400 {
			flush()
		}
	}
	flush()
}

// randomStream concatenates documents of the corpus that parse, with
// space, comments and processing instructions between them, and sometimes
// an input that does not parse last.
func randomStream(rnd *rand.Rand, corpus []string) string {
	seps := []string{"", " ", "\n", "<!-- c -->", "<?p x?>", " <!--a>b--> "}
	var sb strings.Builder
	for n := 1 + rnd.Intn(8); n > 0; {
		doc := corpus[rnd.Intn(len(corpus))]
		if ParseBytes([]byte(doc), discard{}) != nil {
			continue
		}
		sb.WriteString(seps[rnd.Intn(len(seps))])
		sb.WriteString(doc)
		n--
	}
	if rnd.Intn(3) == 0 {
		sb.WriteString(corpus[rnd.Intn(len(corpus))])
	}
	return sb.String()
}

// FuzzStreamDocuments: whatever the input and the read sizes (picked by the
// fuzzer), StreamDocuments must hand over ParseBytes's documents and fail
// with its error.
func FuzzStreamDocuments(f *testing.F) {
	for i, s := range append(streamCases, doctypeCorpus...) {
		f.Add(s, []byte{byte(i), 1, 7})
	}
	for _, s := range edgeCorpus() {
		f.Add(s, []byte{3})
	}
	f.Fuzz(func(t *testing.T, input string, sizes []byte) {
		if len(sizes) == 0 {
			sizes = []byte{0}
		}
		r := &chunkReader{data: []byte(input)}
		for _, n := range sizes {
			r.sizes = append(r.sizes, 1+int(n)%64)
		}
		checkStream(t, input, map[string]io.Reader{fmt.Sprint(r.sizes): r})
	})
}

// TestStreamDocumentsPipe: a document reaches the handler as soon as it is
// in, before the writer sends more.
func TestStreamDocumentsPipe(t *testing.T) {
	pr, pw := io.Pipe()
	got := make(chan string)
	done := make(chan error, 1)
	go func() {
		done <- StreamDocuments(pr, func(doc []byte) error {
			got <- string(doc)
			return nil
		})
	}()
	for _, doc := range []string{`<a x="1">t</a>`, "\n<b><c/></b>", "<!-- c --><d/>"} {
		if _, err := pw.Write([]byte(doc)); err != nil {
			t.Fatal(err)
		}
		select {
		case d := <-got:
			if want := strings.TrimLeft(doc, "\n"); d != want {
				t.Fatalf("handed over %q, want %q", d, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%q was written but not handed over", doc)
		}
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStreamDocumentsOneByteLarge reads a 4 MiB document of small elements
// one byte at a time: a scan resumed at the construct the input ran out in
// finishes, where one restarted at the document's start would read the
// document once per byte. The document ends in a 256 KiB comment and a
// 256 KiB attribute value, which a scan restarted at the construct's start
// on every byte would read 2^17 times each.
func TestStreamDocumentsOneByteLarge(t *testing.T) {
	var doc bytes.Buffer
	doc.WriteString(`<root>`)
	n := 0
	for doc.Len() < 4<<20 {
		fmt.Fprintf(&doc, `<e i="%d">v&amp;%d</e><!-- c -->`, n, n)
		n++
	}
	big := strings.Repeat("x-", 128<<10)
	fmt.Fprintf(&doc, `<!--%s--><e v="%s"/></root><tail/>`, big, big)
	var lens []int
	err := StreamDocuments(iotest.OneByteReader(bytes.NewReader(doc.Bytes())), func(d []byte) error {
		lens = append(lens, len(d))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{doc.Len() - len("<tail/>"), len("<tail/>")}; fmt.Sprint(lens) != fmt.Sprint(want) {
		t.Fatalf("document lengths %v, want %v", lens, want)
	}
}
