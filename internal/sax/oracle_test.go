package sax

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// encoding/xml, through StdParse, judges ByteScanner: where both accept an
// input the event streams must be identical, and where they part ways on
// acceptance the input must fall in exactly one named deviation below, in
// the direction it names. DESIGN.md "What a verdict checks" lists them with
// their counts on the differential corpus.
//
// Most deviations are bound to the error messages the rejecting parser gives
// for them, and their predicate must find the deviating construct in the
// input; the rejecting parser's events must also be a prefix of the
// accepting one's, so everything before the point of failure agrees. A
// deviation that can change events, or either verdict, instead cuts the
// construct out, and the rest of the input must pass the judge.

// A deviation is one named class of inputs the two parsers judge apart.
type deviation struct {
	name string
	// byteLenient: ByteScanner accepts what encoding/xml rejects; otherwise
	// encoding/xml accepts what ByteScanner rejects. A cut deviation is
	// checked by cutting, whichever way the verdicts fall.
	byteLenient bool
	// errs are the rejecting parser's error messages the deviation
	// explains (substrings); no two deviations share one.
	errs []string
	// holds reports whether the input shows the deviation.
	holds func(r *rulings) bool
	// cut, set instead of errs and holds, returns the input without the
	// deviating construct (or with it as the other parser reads it), or nil
	// if it holds none.
	cut func(in []byte) []byte
}

// rulings are both parsers' verdicts on one input.
type rulings struct {
	in                    []byte
	byteEvents, stdEvents []Event
	byteErr, stdErr       error
}

var deviations = []deviation{
	{
		name: "line-ends",
		cut:  normalizeLineEnds,
	},
	{
		name: "doctype-end",
		cut:  cutDoctype,
	},
	{
		name:        "processing-instruction",
		byteLenient: true,
		cut:         cutPI,
	},
	{
		name:        "label-not-a-name",
		byteLenient: true,
		errs: []string{"expected element name after <", "expected attribute name in element",
			"attribute name without = in element", "invalid XML name"},
		holds: func(r *rulings) bool {
			return slices.ContainsFunc(r.byteEvents, func(e Event) bool {
				return e.Kind == StartElement && !isXMLName(strings.TrimPrefix(e.Name, "@"))
			})
		},
	},
	{
		name:        "character-not-a-char",
		byteLenient: true,
		errs:        []string{"illegal character code", "invalid UTF-8"},
		holds: func(r *rulings) bool {
			return !xmlChars(string(r.in)) || slices.ContainsFunc(r.byteEvents, func(e Event) bool {
				return !xmlChars(e.Data)
			})
		},
	},
	{
		name:        "lt-in-attribute-value",
		byteLenient: true,
		errs:        []string{"unescaped < inside quoted string"},
		holds: func(r *rulings) bool {
			for i, e := range r.byteEvents {
				if e.Kind == Text && i > 0 && IsAttr(r.byteEvents[i-1].Name) && strings.Contains(e.Data, "<") {
					return true
				}
			}
			return false
		},
	},
	{
		name:        "cdata-end-in-text",
		byteLenient: true,
		errs:        []string{"unescaped ]]> not in CDATA section"},
		holds: func(r *rulings) bool {
			return slices.ContainsFunc(r.byteEvents, func(e Event) bool { return strings.Contains(e.Data, "]]>") })
		},
	},
	{
		name:        "double-hyphen-in-comment",
		byteLenient: true,
		errs:        []string{`"--" not allowed in comments`},
		holds: func(r *rulings) bool {
			for i := 0; ; i++ {
				j := indexFrom(r.in, i, "<!--")
				if j < 0 {
					return false
				}
				end := indexFrom(r.in, j+4, "-->")
				if end < 0 {
					return false
				}
				if body := r.in[j+4 : end]; bytes.Contains(body, []byte("--")) || bytes.HasSuffix(body, []byte("-")) {
					return true
				}
				i = j
			}
		},
	},
	{
		name: "data-outside-root",
		errs: []string{"character data outside document element", "CDATA outside document element"},
		holds: func(r *rulings) bool {
			off := errOffset(r)
			return off < len(r.in) && (hasPrefix(r.in[off:], "<![CDATA[") || r.in[off] != '<' && !isSpace(r.in[off]))
		},
	},
	{
		name: "declaration-not-doctype",
		errs: []string{"unsupported markup declaration"},
		holds: func(r *rulings) bool {
			off := errOffset(r)
			return off+2 < len(r.in) && hasPrefix(r.in[off:], "<!") && r.in[off+2] != '-' && r.in[off+2] != '['
		},
	},
	{
		name:  "deeper-than-max-depth",
		errs:  []string{"maximum element depth"},
		holds: func(r *rulings) bool { return maxDepth(r.stdEvents) > DefaultMaxDepth },
	},
}

// cutDoctype returns the input without its first DOCTYPE declaration that
// the two parsers end at different places: ByteScanner at the first '>'
// outside brackets (doctypeEnd), encoding/xml at the first '>' that closes
// no '<' opened inside the declaration. Quoted literals and comments hide
// '<', '>', '[' and ']' from both.
func cutDoctype(in []byte) []byte {
	for i := 0; ; i++ {
		j := indexFrom(in, i, "<!DOCTYPE")
		if j < 0 {
			return nil
		}
		i = j
		dec := xml.NewDecoder(bytes.NewReader(in[i:]))
		stdEnd := -1
		if _, err := dec.RawToken(); err == nil {
			stdEnd = i + int(dec.InputOffset())
		}
		if end := doctypeEnd(in, i); end != stdEnd {
			return append(in[:i:i], in[max(end, stdEnd):]...)
		}
	}
}

// cutPI returns the input without its first processing instruction that
// encoding/xml rejects on its own (its target is not a Name, or it declares
// an XML version other than 1.0 or an encoding other than UTF-8), which
// ByteScanner skips unread.
func cutPI(in []byte) []byte {
	for i := 0; ; i++ {
		j := indexFrom(in, i, "<?")
		if j < 0 {
			return nil
		}
		end := indexFrom(in, j+2, "?>")
		if end < 0 {
			return nil
		}
		if _, err := xml.NewDecoder(bytes.NewReader(in[j : end+2])).RawToken(); err != nil {
			return append(in[:j:j], in[end+2:]...)
		}
		i = j
	}
}

// errOffset is the offset of ByteScanner's error.
func errOffset(r *rulings) int {
	var pe *ParseError
	if !errors.As(r.byteErr, &pe) {
		return len(r.in)
	}
	return pe.Offset
}

// maxDepth is the deepest element or attribute nesting of an event stream.
func maxDepth(evs []Event) int {
	depth, deepest := 0, 0
	for _, e := range evs {
		switch e.Kind {
		case StartElement:
			depth++
			deepest = max(deepest, depth)
		case EndElement:
			depth--
		}
	}
	return deepest
}

// isXMLName reports whether encoding/xml reads s as one whole element name.
func isXMLName(s string) bool {
	tok, err := xml.NewDecoder(strings.NewReader("<" + s + "/>")).RawToken()
	st, ok := tok.(xml.StartElement)
	return err == nil && ok && written(st.Name) == s && len(st.Attr) == 0
}

// xmlChars reports whether s is UTF-8 holding only characters of XML 1.0's
// Char production.
func xmlChars(s string) bool {
	for len(s) > 0 {
		r, n := utf8.DecodeRuneInString(s)
		if r == utf8.RuneError && n == 1 || !(r == '\t' || r == '\n' || r == '\r' ||
			r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF) {
			return false
		}
		s = s[n:]
	}
	return true
}

// normalizeLineEnds applies XML 1.0's end-of-line handling (§2.11) to the
// input, "\r\n" and a lone "\r" becoming "\n", or returns nil if it holds no
// "\r". encoding/xml applies it to character data and attribute values;
// ByteScanner delivers line ends as written, so the two parsers' events
// differ wherever a "\r" reaches text or a value.
func normalizeLineEnds(in []byte) []byte {
	if bytes.IndexByte(in, '\r') < 0 {
		return nil
	}
	return bytes.ReplaceAll(bytes.ReplaceAll(in, []byte("\r\n"), []byte("\n")), []byte("\r"), []byte("\n"))
}

// rule parses the input with both parsers.
func rule(in []byte) *rulings {
	r := &rulings{in: in}
	var bc, sc Collector
	r.byteErr = ParseBytes(in, &bc)
	r.stdErr = StdParse(in, &sc)
	r.byteEvents, r.stdEvents = bc.Events, sc.Events
	return r
}

// classify returns the deviation that explains an acceptance difference, or
// an error saying why none does.
func (r *rulings) classify() (*deviation, error) {
	rejecting := r.stdErr
	if r.stdErr == nil {
		rejecting = r.byteErr
	}
	for i := range deviations {
		d := &deviations[i]
		if d.errs == nil || !slices.ContainsFunc(d.errs, func(msg string) bool { return strings.Contains(rejecting.Error(), msg) }) {
			continue
		}
		if d.byteLenient != (r.byteErr == nil) {
			return nil, fmt.Errorf("deviation %s explains the other direction", d.name)
		}
		if !d.holds(r) {
			return nil, fmt.Errorf("deviation %s's error, but the input does not show it", d.name)
		}
		return d, nil
	}
	return nil, errors.New("no deviation names this error")
}

// agree reports whether the parsers reach the same verdict with the same
// events, as far as both got.
func (r *rulings) agree() bool {
	short, long := r.byteEvents, r.stdEvents
	if len(short) > len(long) {
		short, long = long, short
	}
	return slices.Equal(short, long[:len(short)]) && (r.byteErr == nil) == (r.stdErr == nil) &&
		(r.byteErr != nil || len(short) == len(long))
}

// judge checks ByteScanner against encoding/xml on one input and returns
// the deviation the input falls in, or nil where both parsers agree.
func judge(t testing.TB, in []byte) *deviation {
	t.Helper()
	r := rule(in)
	if r.agree() {
		return nil
	}
	var why error
	if (r.byteErr == nil) == (r.stdErr == nil) {
		why = errors.New("the event streams part ways")
	} else if r.stdErr == nil && !slices.Equal(r.byteEvents, r.stdEvents[:min(len(r.byteEvents), len(r.stdEvents))]) ||
		r.byteErr == nil && !slices.Equal(r.stdEvents, r.byteEvents[:min(len(r.byteEvents), len(r.stdEvents))]) {
		why = errors.New("the events part ways before the rejecting parser fails")
	} else if d, err := r.classify(); err == nil {
		return d
	} else {
		why = err
	}
	for i := range deviations {
		if d := &deviations[i]; d.cut != nil {
			if rest := d.cut(r.in); rest != nil {
				judge(t, rest)
				return d
			}
		}
	}
	t.Fatalf("%q: %v\n byte scanner %v, err %v\n StdParse     %v, err %v",
		in, why, r.byteEvents, r.byteErr, r.stdEvents, r.stdErr)
	return nil
}

// TestDeviations pins each deviation's verdicts: the parser it names
// lenient accepts the inputs, the other rejects them, and the input falls
// in that deviation alone. Line ends are accepted by both, with different
// text.
func TestDeviations(t *testing.T) {
	cases := map[string][]string{
		"label-not-a-name": {
			"<a\x01b>1</a\x01b>", `<w><&/></w>`, `<a b"c="1"/>`, `<a x<="1"/>`, `<a ="1"/>`,
			"<\xff\xfe>x</\xff\xfe>", `<a:b:c/>`, `<1a/>`,
		},
		"character-not-a-char":     {"<a>\v5\f</a>", "<a v=\"\x01\"/>", "<a>\xc2</a>", `<a>&#0;</a>`},
		"lt-in-attribute-value":    {`<a v="<"/>`, `<a v='x<y'/>`},
		"cdata-end-in-text":        {`<a>x]]>y</a>`},
		"double-hyphen-in-comment": {`<a><!-- x -- y --></a>`, `<!-- x ---><a/>`},
		"data-outside-root":        {`text outside`, `<a/>text`, `<a/><![CDATA[x]]>`, `&amp;<a/>`, "\ufeff<a/>"},
		"declaration-not-doctype":  {`<!ELEMENT a ANY><a/>`, `<a/><!0>`},
		"processing-instruction":   {`<?0?><a/>`, `<?xml version="1.1"?><a/>`, `<a><?xml encoding="latin1"?></a>`},
		"doctype-end":              {`<!DOCTYPE<><a/>`, `<!DOCTYPE a [ > <b/> ]><a/>`, `<!DOCTYPE a [<!ELEMENT a ANY>><a/>`},
		"line-ends":                {"<a>x\r\ny</a>", "<a>x\ry</a>", "<a v=\"1\r\n2\"/>"},
		"deeper-than-max-depth":    {strings.Repeat("<a>", DefaultMaxDepth+1) + strings.Repeat("</a>", DefaultMaxDepth+1)},
	}
	for _, d := range deviations {
		if len(cases[d.name]) == 0 {
			t.Errorf("deviation %s has no pinning case", d.name)
		}
	}
	for name, ins := range cases {
		t.Run(name, func(t *testing.T) {
			for _, in := range ins {
				d := judge(t, []byte(in))
				if d == nil || d.name != name {
					t.Fatalf("%q falls in %v, want %s", in, d, name)
				}
			}
		})
	}
}
