package sax

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// DefaultMaxDepth bounds element nesting to protect against pathological or
// adversarial inputs (stack exhaustion on streaming brokers).
const DefaultMaxDepth = 512

// BytesHandler is the byte-level counterpart of Handler: event names and
// character data are delivered as sub-slices of the input buffer (or of an
// internal scratch buffer when entity decoding or run coalescing forces a
// copy). Slices are only valid for the duration of the callback — handlers
// that retain them must copy. The XPush machine consumes this interface
// directly, resolving names to interned symbols without ever materialising a
// string, which is what makes the warm filtering path allocation-free.
type BytesHandler interface {
	StartDocument()
	StartElementBytes(name []byte)
	TextBytes(data []byte)
	EndElementBytes(name []byte)
	EndDocument()
}

// span is a byte range into the scanner's input buffer.
type span struct{ start, end int }

// Text accumulation modes: most text nodes are one contiguous raw segment of
// the input and are delivered without copying; entity references and
// coalescing across CDATA/comments fall back to a reusable buffer.
const (
	textNone = iota
	textSimple
	textBuffered
)

// ByteScanner is the fast streaming parser (the paper's "faster parser"): it
// produces the modified SAX event stream of Sec. 2 and delivers it through
// BytesHandler callbacks, and after its internal buffers have warmed up it
// performs no heap allocations per document. It accepts a concatenation of
// several documents in one buffer (as produced when training data documents
// are concatenated, Sec. 5): each yields StartDocument ... EndDocument.
//
// Supported syntax: prolog and processing instructions, comments, DOCTYPE
// declarations (including skipping an internal subset), CDATA sections, the
// five predefined entities plus numeric character references, self-closing
// tags, and both attribute quote styles. Whitespace-only character data is
// dropped (the paper's data model has no mixed content); adjacent text and
// CDATA runs are coalesced into one text event. encoding/xml (StdParse)
// judges it; DESIGN.md "What a verdict checks" lists where the two differ.
//
// One ByteScanner serves one goroutine; reuse it across Parse calls to
// amortise buffer growth.
type ByteScanner struct {
	data []byte
	pos  int
	h    BytesHandler

	stack []span // open element names, as ranges into data
	inDoc bool

	textMode           uint8
	textStart, textEnd int
	textBuf            []byte

	attrName []byte // "@" + attribute label scratch
	attrVal  []byte // entity-decoded attribute value scratch

	// skip is the stack depth of the element being skipped (SkipElement),
	// 0 when none is. While it is set, h is discard and saved holds the
	// caller's handler: every check still runs, but no event reaches it.
	skip  int
	saved BytesHandler

	// more is set while more input may follow data (StreamDocuments): input
	// ending inside a construct fails with io.ErrUnexpectedEOF, leaving pos
	// at the construct's start, where the scan can resume.
	more bool

	// MaxDepth bounds element nesting; 0 selects DefaultMaxDepth.
	MaxDepth int
}

// ParseBytes parses one or more concatenated documents with a throwaway
// ByteScanner. Hot paths should hold a ByteScanner and call its Parse method
// so buffers are reused.
func ParseBytes(data []byte, h BytesHandler) error {
	var s ByteScanner
	return s.Parse(data, h)
}

// Parse runs the handler over a buffer holding one or more concatenated
// documents. The scanner can be reused for subsequent Parse calls.
func (s *ByteScanner) Parse(data []byte, h BytesHandler) error {
	if s.MaxDepth == 0 {
		s.MaxDepth = DefaultMaxDepth
	}
	s.data, s.pos, s.h = data, 0, h
	s.stack = s.stack[:0]
	s.inDoc = false
	s.textMode = textNone
	s.skip = 0
	err := s.run()
	s.data, s.h, s.saved = nil, nil, nil
	return err
}

// SkipElement skips what the start event being delivered opens: an
// element's attributes, content and close tag, or an attribute's value and
// end. The scanner checks the skipped input exactly as it checks any other,
// so a document's verdict and error do not change, but it delivers none of
// its events; StartDocument and EndDocument are still delivered. Call it
// only from the handler's StartElementBytes.
func (s *ByteScanner) SkipElement() {
	// A start tag's element is pushed after its attributes are read, so the
	// element, and an attribute of it, sit one level below the stack.
	s.saved, s.h, s.skip = s.h, discard{}, len(s.stack)+1
}

// endSkip hands the events back to the caller's handler.
func (s *ByteScanner) endSkip() { s.h, s.skip = s.saved, 0 }

// discard is the handler a skipped subtree's events go to.
type discard struct{}

func (discard) StartDocument()           {}
func (discard) StartElementBytes([]byte) {}
func (discard) TextBytes([]byte)         {}
func (discard) EndElementBytes([]byte)   {}
func (discard) EndDocument()             {}

func (s *ByteScanner) errf(format string, args ...any) error {
	return &ParseError{Offset: s.pos, Msg: fmt.Sprintf(format, args...)}
}

// endf is errf for input that ends inside the construct being read, which
// more input might complete. It keeps errf's signature: a call's argument
// spill space is part of the caller's frame, and the scanner's frames sit on
// every filtering goroutine's stack.
func (s *ByteScanner) endf(format string, args ...any) error {
	if s.more {
		return io.ErrUnexpectedEOF
	}
	return s.errf(format, args...)
}

func (s *ByteScanner) run() error {
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c == '<' {
			if err := s.markup(); err != nil {
				return err
			}
			continue
		}
		if !s.inDoc || len(s.stack) == 0 {
			// Character data outside any element: only whitespace is
			// allowed.
			if isSpace(c) {
				s.pos++
				continue
			}
			return s.errf("character data outside document element")
		}
		if err := s.textRun(); err != nil {
			return err
		}
	}
	if len(s.stack) > 0 {
		top := s.stack[len(s.stack)-1]
		return s.endf("unexpected end of input: %d unclosed element(s), innermost %q",
			len(s.stack), s.data[top.start:top.end])
	}
	return nil // a closed root delivered EndDocument
}

// addTextSegment records raw character data [start, end) of the input,
// staying in zero-copy simple mode while the pending text is one contiguous
// range.
func (s *ByteScanner) addTextSegment(start, end int) {
	switch s.textMode {
	case textNone:
		s.textMode, s.textStart, s.textEnd = textSimple, start, end
	case textSimple:
		if start == s.textEnd {
			s.textEnd = end
			return
		}
		s.toBuffered()
		s.textBuf = append(s.textBuf, s.data[start:end]...)
	default:
		s.textBuf = append(s.textBuf, s.data[start:end]...)
	}
}

// toBuffered switches text accumulation to the scratch buffer, preserving
// any pending simple segment.
func (s *ByteScanner) toBuffered() {
	switch s.textMode {
	case textNone:
		s.textBuf = s.textBuf[:0]
	case textSimple:
		s.textBuf = append(s.textBuf[:0], s.data[s.textStart:s.textEnd]...)
	default:
		return
	}
	s.textMode = textBuffered
}

// flushText emits accumulated character data as one TextBytes event,
// dropping runs that bytes.TrimSpace empties, i.e. runs of Unicode
// White_Space (the data model has no mixed content, so inter-element
// whitespace is insignificant). TrimSpace runs only when the first byte
// might be trimmed: an ASCII byte outside its six space bytes cannot be.
func (s *ByteScanner) flushText() {
	var t []byte
	switch s.textMode {
	case textNone:
		return
	case textSimple:
		t = s.data[s.textStart:s.textEnd]
	default:
		t = s.textBuf
	}
	s.textMode = textNone
	if len(t) == 0 || byteClass[t[0]]&mayTrim != 0 && len(bytes.TrimSpace(t)) == 0 {
		return
	}
	s.h.TextBytes(t)
}

// textRun consumes character data up to the next '<'.
func (s *ByteScanner) textRun() error {
	start := s.pos
	for {
		s.pos = stopIndex(s.data, s.pos, stopText)
		if s.pos >= len(s.data) || s.data[s.pos] == '<' {
			break
		}
		s.toBuffered()
		s.textBuf = append(s.textBuf, s.data[start:s.pos]...)
		r, err := s.entity()
		if err != nil {
			return err
		}
		s.textBuf = utf8.AppendRune(s.textBuf, r)
		start = s.pos
	}
	s.addTextSegment(start, s.pos)
	return nil
}

// entity decodes an entity reference starting at '&' without allocating:
// the five predefined names compare directly against the input, and a
// character reference ('&#' digits ';' or '&#x' hex digits ';') is
// accumulated by hand, digits of any length, up to U+10FFFF.
func (s *ByteScanner) entity() (rune, error) {
	end, r := s.pos+1, rune(-1)
	if end < len(s.data) && s.data[end] == '#' {
		base := uint32(10)
		if end++; end < len(s.data) && s.data[end] == 'x' {
			base, end = 16, end+1
		}
		digits, n := end, uint32(0)
		for ; end < len(s.data) && n <= unicode.MaxRune; end++ {
			d := digitValue(s.data[end])
			if d >= base {
				break
			}
			n = n*base + d
		}
		if end > digits && n <= unicode.MaxRune {
			r = rune(n)
		}
	} else {
		for end < len(s.data) && s.data[end] != ';' {
			if end-s.pos > 12 {
				return 0, s.errf("malformed entity reference")
			}
			end++
		}
		if end < len(s.data) {
			switch string(s.data[s.pos+1 : end]) {
			case "lt":
				r = '<'
			case "gt":
				r = '>'
			case "amp":
				r = '&'
			case "apos":
				r = '\''
			case "quot":
				r = '"'
			}
		}
	}
	if end >= len(s.data) {
		return 0, s.endf("unterminated entity reference")
	}
	if r < 0 || s.data[end] != ';' {
		return 0, s.errf("bad entity reference %q", s.data[s.pos:end+1])
	}
	s.pos = end + 1
	return r, nil
}

// digitValue is the value of a decimal or hexadecimal digit, 16 or more for
// any other byte.
func digitValue(c byte) uint32 {
	switch {
	case c >= '0' && c <= '9':
		return uint32(c - '0')
	case c|0x20 >= 'a' && c|0x20 <= 'f':
		return uint32(c|0x20-'a') + 10
	}
	return 16
}

// markup handles everything starting with '<'.
func (s *ByteScanner) markup() error {
	if s.pos+1 >= len(s.data) {
		return s.endf("unexpected end of input after '<'")
	}
	switch s.data[s.pos+1] {
	case '?':
		end := indexFrom(s.data, s.pos+2, "?>")
		if end < 0 {
			return s.endf("unterminated processing instruction")
		}
		s.pos = end + 2
		return nil
	case '!':
		return s.bang()
	case '/':
		return s.endTag()
	default:
		return s.startTag()
	}
}

func (s *ByteScanner) bang() error {
	rest := s.data[s.pos:]
	switch {
	case hasPrefix(rest, "<!--"):
		end := indexFrom(s.data, s.pos+4, "-->")
		if end < 0 {
			return s.endf("unterminated comment")
		}
		s.pos = end + 3
		return nil
	case hasPrefix(rest, "<![CDATA["):
		end := indexFrom(s.data, s.pos+9, "]]>")
		if end < 0 {
			return s.endf("unterminated CDATA section")
		}
		if !s.inDoc || len(s.stack) == 0 {
			return s.errf("CDATA outside document element")
		}
		if end > s.pos+9 {
			s.addTextSegment(s.pos+9, end)
		}
		s.pos = end + 3
		return nil
	case hasPrefix(rest, "<!DOCTYPE"):
		end := doctypeEnd(s.data, s.pos)
		if end < 0 {
			return s.endf("unterminated DOCTYPE declaration")
		}
		s.pos = end
		return nil
	default:
		if s.more && len(rest) < len("<![CDATA[") {
			return io.ErrUnexpectedEOF // may yet open one of the three
		}
		return s.errf("unsupported markup declaration")
	}
}

// doctypeEnd returns the index just past the '>' that closes the DOCTYPE
// declaration at i, or -1 if b ends first. A '>' closes it only outside the
// internal subset ('[' … ']'), a quoted literal and a comment. encoding/xml
// instead pairs each '>' with a '<' opened inside the declaration; the two
// rules part ways only on a subset holding a stray bracket (DESIGN.md "What
// a verdict checks", doctype-end).
func doctypeEnd(b []byte, i int) int {
	depth := 0
	for i += len("<!DOCTYPE"); i < len(b); i++ {
		switch b[i] {
		case '"', '\'':
			j := bytes.IndexByte(b[i+1:], b[i])
			if j < 0 {
				return -1
			}
			i += j + 1
		case '<':
			if hasPrefix(b[i:], "<!--") {
				j := indexFrom(b, i+4, "-->")
				if j < 0 {
					return -1
				}
				i = j + 2
			}
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return i + 1
			}
		}
	}
	return -1
}

func (s *ByteScanner) startTag() error {
	if !s.inDoc {
		s.inDoc = true
		s.h.StartDocument()
	}
	s.flushText()
	nameStart := s.pos + 1
	i := stopIndex(s.data, nameStart, stopName)
	if i == nameStart {
		return s.errf("missing element name")
	}
	name := s.data[nameStart:i]
	if len(s.stack) >= s.MaxDepth {
		return s.errf("maximum element depth %d exceeded", s.MaxDepth)
	}
	s.h.StartElementBytes(name)
	// Attributes.
	for {
		i = skipSpace(s.data, i)
		if i >= len(s.data) {
			return s.endf("unterminated start tag <%s", name)
		}
		if s.data[i] == '>' {
			s.stack = append(s.stack, span{start: nameStart, end: nameStart + len(name)})
			s.pos = i + 1
			return nil
		}
		if s.data[i] == '/' {
			if i+1 >= len(s.data) || s.data[i+1] != '>' {
				if s.more && i+1 >= len(s.data) {
					return io.ErrUnexpectedEOF
				}
				return s.errf("bad '/' in start tag")
			}
			// Self-closing element.
			s.endEvent(name, len(s.stack)+1)
			s.pos = i + 2
			if len(s.stack) == 0 {
				s.inDoc = false
				s.h.EndDocument()
			}
			return nil
		}
		attrStart := i
		attrEnd := stopIndex(s.data, i, stopAttr)
		i = skipSpace(s.data, attrEnd) // Eq ::= S? '=' S?
		if i >= len(s.data) || s.data[i] != '=' {
			if s.more && i >= len(s.data) {
				return io.ErrUnexpectedEOF
			}
			return s.errf("attribute without value in <%s>", name)
		}
		s.attrName = append(s.attrName[:0], '@')
		s.attrName = append(s.attrName, s.data[attrStart:attrEnd]...)
		i = skipSpace(s.data, i+1) // past '='
		if i >= len(s.data) || (s.data[i] != '"' && s.data[i] != '\'') {
			if s.more && i >= len(s.data) {
				return io.ErrUnexpectedEOF
			}
			return s.errf("attribute value must be quoted in <%s>", name)
		}
		quote := s.data[i]
		stop := stopQuot
		if quote == '\'' {
			stop = stopApos
		}
		i++
		valStart := i
		buffered := false
		for {
			i = stopIndex(s.data, i, stop)
			if i >= len(s.data) || s.data[i] == quote {
				break
			}
			if !buffered {
				s.attrVal = s.attrVal[:0]
				buffered = true
			}
			s.attrVal = append(s.attrVal, s.data[valStart:i]...)
			save := s.pos
			s.pos = i
			r, err := s.entity()
			if err != nil {
				s.pos = save
				return err
			}
			i = s.pos
			s.pos = save
			s.attrVal = utf8.AppendRune(s.attrVal, r)
			valStart = i
		}
		if i >= len(s.data) {
			return s.endf("unterminated attribute value in <%s>", name)
		}
		val := s.data[valStart:i]
		if buffered {
			s.attrVal = append(s.attrVal, s.data[valStart:i]...)
			val = s.attrVal
		}
		i++ // skip closing quote
		if s.skip == 0 {
			s.h.StartElementBytes(s.attrName)
			s.h.TextBytes(val)
			s.h.EndElementBytes(s.attrName)
			if s.skip != 0 { // SkipElement on this attribute
				s.endSkip()
			}
		}
	}
}

// endTag closes the innermost open element. The common case, `</name>`
// spelling exactly the open tag's name, is recognised by comparing against
// the open tag's bytes: an open name holds no space, '>' or '/', so the
// general scan below would stop at the same '>' and accept the same name.
// Every other close tag takes that scan, which reports the errors.
func (s *ByteScanner) endTag() error {
	nameStart := s.pos + 2
	if n := len(s.stack); n > 0 {
		top := s.stack[n-1]
		end := nameStart + top.end - top.start
		if end < len(s.data) && s.data[end] == '>' &&
			bytes.Equal(s.data[nameStart:end], s.data[top.start:top.end]) {
			return s.closeElement(s.data[top.start:top.end], end+1)
		}
	}
	i := nameStart
	for i < len(s.data) && s.data[i] != '>' && !isSpace(s.data[i]) {
		i++
	}
	name := s.data[nameStart:i]
	i = skipSpace(s.data, i)
	if i >= len(s.data) || s.data[i] != '>' {
		if s.more && i >= len(s.data) {
			return io.ErrUnexpectedEOF
		}
		return s.errf("unterminated end tag </%s", name)
	}
	if len(s.stack) == 0 {
		return s.errf("end tag </%s> with no open element", name)
	}
	top := s.stack[len(s.stack)-1]
	if !bytes.Equal(s.data[top.start:top.end], name) {
		return s.errf("mismatched end tag: expected </%s>, got </%s>",
			s.data[top.start:top.end], name)
	}
	return s.closeElement(name, i+1)
}

// closeElement pops the innermost open element, named name, and resumes
// scanning at next.
func (s *ByteScanner) closeElement(name []byte, next int) error {
	s.flushText()
	s.endEvent(name, len(s.stack))
	s.stack = s.stack[:len(s.stack)-1]
	s.pos = next
	if len(s.stack) == 0 {
		s.inDoc = false
		s.h.EndDocument()
	}
	return nil
}

// endEvent delivers the end event of an element at stack depth depth; the
// end of a skipped element is withheld and closes the skip.
func (s *ByteScanner) endEvent(name []byte, depth int) {
	if s.skip != depth {
		s.h.EndElementBytes(name)
		return
	}
	s.endSkip()
}

// Byte classes. Each stop bit marks the bytes that end one kind of run;
// mayTrim marks the bytes bytes.TrimSpace might trim when they start a run:
// its six ASCII space bytes and every byte ≥ 0x80, which may begin a
// multi-byte White_Space rune such as U+0085 or U+00A0.
const (
	stopName uint8 = 1 << iota // start-tag name: space, '>', '/'
	stopAttr                   // attribute name: space, '=', '>'
	stopText                   // character data: '<', '&'
	stopQuot                   // "-quoted attribute value: '"', '&'
	stopApos                   // '-quoted attribute value: '\'', '&'
	xmlSpace                   // isSpace: ' ', '\t', '\n', '\r'
	mayTrim
)

var byteClass = func() (t [256]uint8) {
	for _, c := range []byte(" \t\n\r") {
		t[c] |= stopName | stopAttr | xmlSpace
	}
	t['>'] |= stopName | stopAttr
	t['/'] |= stopName
	t['='] |= stopAttr
	t['<'] |= stopText
	t['&'] |= stopText | stopQuot | stopApos
	t['"'] |= stopQuot
	t['\''] |= stopApos
	for _, c := range []byte(" \t\n\v\f\r") {
		t[c] |= mayTrim
	}
	for c := 0x80; c < 0x100; c++ {
		t[c] |= mayTrim
	}
	return t
}()

// stopWord is the word-at-a-time form of a stop class: a word holds a stop
// byte only if one of its bytes equals a or b, or (for classes that stop at
// space) is below 0x21. lt is 0x21 in every byte for those classes and 0
// otherwise, which makes the below-test never fire.
type stopWord struct{ a, b, lt uint64 }

const lanes = 0x0101010101010101

var stopWords = [...]stopWord{
	{'>' * lanes, '/' * lanes, 0x21 * lanes}, // stopName
	{'=' * lanes, '>' * lanes, 0x21 * lanes}, // stopAttr
	{'<' * lanes, '&' * lanes, 0},            // stopText
	{'"' * lanes, '&' * lanes, 0},            // stopQuot
	{'\'' * lanes, '&' * lanes, 0},           // stopApos
}

// stopIndex returns the index of the first byte of b at or after i in class
// (one of the stop bits), or len(b). It tests eight bytes per step: a word
// that cannot hold a stop byte is skipped whole, and one that might is
// classified byte by byte from its first candidate, so a false candidate
// costs time but never a wrong answer.
func stopIndex(b []byte, i int, class uint8) int {
	k := &stopWords[bits.TrailingZeros8(class)]
	for i+8 <= len(b) {
		w := binary.LittleEndian.Uint64(b[i:])
		m := hasZero(w^k.a) | hasZero(w^k.b) | hasLess(w, k.lt)
		if m == 0 {
			i += 8
			continue
		}
		// The lowest flagged byte is a true candidate: the word tests
		// raise false flags only above a byte that really matched.
		end := i + 8
		for i += bits.TrailingZeros64(m) >> 3; i < end; i++ {
			if byteClass[b[i]]&class != 0 {
				return i
			}
		}
	}
	for ; i < len(b); i++ {
		if byteClass[b[i]]&class != 0 {
			return i
		}
	}
	return len(b)
}

// hasZero flags (in bit 7 of its byte) the lowest zero byte of w, and
// possibly bytes above it; it is zero only if w has no zero byte.
func hasZero(w uint64) uint64 { return (w - lanes) &^ w & (0x80 * lanes) }

// hasLess is hasZero for "byte below n", n ≤ 0x80 broadcast to every byte.
func hasLess(w, n uint64) uint64 { return (w - n) &^ w & (0x80 * lanes) }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func hasPrefix(b []byte, p string) bool {
	if len(b) < len(p) {
		return false
	}
	for i := 0; i < len(p); i++ {
		if b[i] != p[i] {
			return false
		}
	}
	return true
}

func indexFrom(b []byte, from int, sub string) int {
	if from > len(b) {
		return -1
	}
	i := bytes.Index(b[from:], []byte(sub))
	if i < 0 {
		return -1
	}
	return from + i
}

// skipSpace returns the index of the first non-space byte of b at or after
// i, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) && byteClass[b[i]]&xmlSpace != 0 {
		i++
	}
	return i
}
