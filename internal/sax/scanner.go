package sax

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DefaultMaxDepth bounds element nesting to protect against pathological or
// adversarial inputs (stack exhaustion on streaming brokers).
const DefaultMaxDepth = 512

// Scanner is a fast, allocation-conscious pull parser producing the modified
// SAX event stream of Sec. 2. It supports a concatenation of several XML
// documents in one buffer (as produced when training data documents are
// concatenated, Sec. 5): each document yields StartDocument ... EndDocument.
//
// Supported syntax: prolog and processing instructions, comments, DOCTYPE
// declarations (including skipping an internal subset), CDATA sections, the
// five predefined entities plus numeric character references, self-closing
// tags, and both attribute quote styles. Whitespace-only character data is
// dropped (the paper's data model has no mixed content); adjacent text and
// CDATA runs are coalesced into one Text event.
type Scanner struct {
	data []byte
	pos  int

	// queue of pending events (attributes expand to three events each).
	queue []Event
	qhead int

	stack    []string
	inDoc    bool
	text     strings.Builder
	hasText  bool
	MaxDepth int
	done     bool
}

// NewScanner returns a Scanner over a buffer holding one or more documents.
func NewScanner(data []byte) *Scanner {
	return &Scanner{data: data, MaxDepth: DefaultMaxDepth}
}

func (s *Scanner) errf(format string, args ...any) error {
	return &ParseError{Offset: s.pos, Msg: fmt.Sprintf(format, args...)}
}

func (s *Scanner) emit(e Event) { s.queue = append(s.queue, e) }

// Next returns the next event, or io.EOF after the final EndDocument.
func (s *Scanner) Next() (Event, error) {
	for {
		if s.qhead < len(s.queue) {
			e := s.queue[s.qhead]
			s.qhead++
			if s.qhead == len(s.queue) {
				s.queue = s.queue[:0]
				s.qhead = 0
			}
			return e, nil
		}
		if s.done {
			return Event{}, io.EOF
		}
		if err := s.scan(); err != nil {
			return Event{}, err
		}
	}
}

// Run pushes all events to a handler until the input is exhausted.
func (s *Scanner) Run(h Handler) error {
	for {
		e, err := s.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch e.Kind {
		case StartDocument:
			h.StartDocument()
		case StartElement:
			h.StartElement(e.Name)
		case Text:
			h.Text(e.Data)
		case EndElement:
			h.EndElement(e.Name)
		case EndDocument:
			h.EndDocument()
		}
	}
}

// Parse runs a handler over a byte buffer containing one or more documents.
func Parse(data []byte, h Handler) error {
	return NewScanner(data).Run(h)
}

// scan consumes input until at least one event is queued or input ends.
func (s *Scanner) scan() error {
	for s.qhead >= len(s.queue) {
		if s.pos >= len(s.data) {
			return s.finish()
		}
		c := s.data[s.pos]
		if c == '<' {
			if err := s.scanMarkup(); err != nil {
				return err
			}
			continue
		}
		if !s.inDoc || len(s.stack) == 0 {
			// Character data outside any element: only whitespace
			// is allowed.
			if isSpace(c) {
				s.pos++
				continue
			}
			return s.errf("character data outside document element")
		}
		if err := s.scanText(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Scanner) finish() error {
	if len(s.stack) > 0 {
		return s.errf("unexpected end of input: %d unclosed element(s), innermost %q",
			len(s.stack), s.stack[len(s.stack)-1])
	}
	if s.inDoc {
		s.inDoc = false
		s.emit(Event{Kind: EndDocument})
		return nil
	}
	s.done = true
	return nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// flushText emits accumulated character data as one Text event.
// Whitespace-only accumulations are dropped: the paper's data model has no
// mixed content, so inter-element whitespace is insignificant.
func (s *Scanner) flushText() {
	if !s.hasText {
		return
	}
	data := s.text.String()
	s.text.Reset()
	s.hasText = false
	if strings.TrimSpace(data) == "" {
		return
	}
	s.emit(Event{Kind: Text, Data: data})
}

// scanText consumes character data up to the next '<'.
func (s *Scanner) scanText() error {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos] != '<' {
		if s.data[s.pos] == '&' {
			// Append literal prefix, then the decoded entity.
			s.text.Write(s.data[start:s.pos])
			r, err := s.scanEntity()
			if err != nil {
				return err
			}
			s.text.WriteRune(r)
			start = s.pos
			continue
		}
		s.pos++
	}
	s.text.Write(s.data[start:s.pos])
	s.hasText = true
	return nil
}

// scanEntity decodes an entity reference starting at '&'.
func (s *Scanner) scanEntity() (rune, error) {
	end := s.pos + 1
	for end < len(s.data) && s.data[end] != ';' {
		if end-s.pos > 12 {
			return 0, s.errf("malformed entity reference")
		}
		end++
	}
	if end >= len(s.data) {
		return 0, s.errf("unterminated entity reference")
	}
	name := string(s.data[s.pos+1 : end])
	s.pos = end + 1
	switch name {
	case "lt":
		return '<', nil
	case "gt":
		return '>', nil
	case "amp":
		return '&', nil
	case "apos":
		return '\'', nil
	case "quot":
		return '"', nil
	}
	if len(name) > 1 && name[0] == '#' {
		base, digits := 10, name[1:]
		if len(digits) > 1 && (digits[0] == 'x' || digits[0] == 'X') {
			base, digits = 16, digits[1:]
		}
		n, err := strconv.ParseUint(digits, base, 32)
		if err != nil {
			return 0, s.errf("bad character reference &%s;", name)
		}
		return rune(n), nil
	}
	return 0, s.errf("unknown entity &%s;", name)
}

// scanMarkup handles everything starting with '<'.
func (s *Scanner) scanMarkup() error {
	if s.pos+1 >= len(s.data) {
		return s.errf("unexpected end of input after '<'")
	}
	switch s.data[s.pos+1] {
	case '?':
		return s.skipPI()
	case '!':
		return s.scanBang()
	case '/':
		return s.scanEndTag()
	default:
		return s.scanStartTag()
	}
}

func (s *Scanner) skipPI() error {
	end := indexFrom(s.data, s.pos+2, "?>")
	if end < 0 {
		return s.errf("unterminated processing instruction")
	}
	s.pos = end + 2
	return nil
}

func (s *Scanner) scanBang() error {
	rest := s.data[s.pos:]
	switch {
	case hasPrefix(rest, "<!--"):
		end := indexFrom(s.data, s.pos+4, "-->")
		if end < 0 {
			return s.errf("unterminated comment")
		}
		s.pos = end + 3
		return nil
	case hasPrefix(rest, "<![CDATA["):
		end := indexFrom(s.data, s.pos+9, "]]>")
		if end < 0 {
			return s.errf("unterminated CDATA section")
		}
		if !s.inDoc || len(s.stack) == 0 {
			return s.errf("CDATA outside document element")
		}
		data := s.data[s.pos+9 : end]
		if len(data) > 0 {
			s.text.Write(data)
			s.hasText = true
		}
		s.pos = end + 3
		return nil
	case hasPrefix(rest, "<!DOCTYPE"):
		return s.skipDoctype()
	default:
		return s.errf("unsupported markup declaration")
	}
}

// skipDoctype skips a DOCTYPE declaration, including an internal subset.
func (s *Scanner) skipDoctype() error {
	depth := 0
	for i := s.pos; i < len(s.data); i++ {
		switch s.data[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				s.pos = i + 1
				return nil
			}
		}
	}
	return s.errf("unterminated DOCTYPE declaration")
}

func (s *Scanner) scanStartTag() error {
	if !s.inDoc {
		s.inDoc = true
		s.emit(Event{Kind: StartDocument})
	}
	s.flushText()
	i := s.pos + 1
	nameStart := i
	for i < len(s.data) && !isSpace(s.data[i]) && s.data[i] != '>' && s.data[i] != '/' {
		i++
	}
	if i == nameStart {
		return s.errf("missing element name")
	}
	name := string(s.data[nameStart:i])
	if len(s.stack) >= s.MaxDepth {
		return s.errf("maximum element depth %d exceeded", s.MaxDepth)
	}
	s.emit(Event{Kind: StartElement, Name: name})
	// Attributes.
	for {
		for i < len(s.data) && isSpace(s.data[i]) {
			i++
		}
		if i >= len(s.data) {
			return s.errf("unterminated start tag <%s", name)
		}
		if s.data[i] == '>' {
			s.stack = append(s.stack, name)
			s.pos = i + 1
			return nil
		}
		if s.data[i] == '/' {
			if i+1 >= len(s.data) || s.data[i+1] != '>' {
				return s.errf("bad '/' in start tag")
			}
			// Self-closing element.
			s.emit(Event{Kind: EndElement, Name: name})
			s.pos = i + 2
			if len(s.stack) == 0 {
				s.emitEndDocument()
			}
			return nil
		}
		attrStart := i
		for i < len(s.data) && s.data[i] != '=' && !isSpace(s.data[i]) && s.data[i] != '>' {
			i++
		}
		if i >= len(s.data) || s.data[i] != '=' {
			return s.errf("attribute without value in <%s>", name)
		}
		attr := string(s.data[attrStart:i])
		i++ // skip '='
		for i < len(s.data) && isSpace(s.data[i]) {
			i++
		}
		if i >= len(s.data) || (s.data[i] != '"' && s.data[i] != '\'') {
			return s.errf("attribute value must be quoted in <%s>", name)
		}
		quote := s.data[i]
		i++
		valStart := i
		var val strings.Builder
		for i < len(s.data) && s.data[i] != quote {
			if s.data[i] == '&' {
				val.Write(s.data[valStart:i])
				save := s.pos
				s.pos = i
				r, err := s.scanEntity()
				if err != nil {
					return err
				}
				i = s.pos
				s.pos = save
				val.WriteRune(r)
				valStart = i
				continue
			}
			i++
		}
		if i >= len(s.data) {
			return s.errf("unterminated attribute value in <%s>", name)
		}
		val.Write(s.data[valStart:i])
		i++ // skip closing quote
		aname := "@" + attr
		s.emit(Event{Kind: StartElement, Name: aname})
		s.emit(Event{Kind: Text, Data: val.String()})
		s.emit(Event{Kind: EndElement, Name: aname})
	}
}

func (s *Scanner) scanEndTag() error {
	i := s.pos + 2
	nameStart := i
	for i < len(s.data) && s.data[i] != '>' && !isSpace(s.data[i]) {
		i++
	}
	name := string(s.data[nameStart:i])
	for i < len(s.data) && isSpace(s.data[i]) {
		i++
	}
	if i >= len(s.data) || s.data[i] != '>' {
		return s.errf("unterminated end tag </%s", name)
	}
	if len(s.stack) == 0 {
		return s.errf("end tag </%s> with no open element", name)
	}
	top := s.stack[len(s.stack)-1]
	if top != name {
		return s.errf("mismatched end tag: expected </%s>, got </%s>", top, name)
	}
	s.flushText()
	s.stack = s.stack[:len(s.stack)-1]
	s.emit(Event{Kind: EndElement, Name: name})
	s.pos = i + 1
	if len(s.stack) == 0 {
		s.emitEndDocument()
	}
	return nil
}

// emitEndDocument closes the current document after its root element closed.
func (s *Scanner) emitEndDocument() {
	s.inDoc = false
	s.emit(Event{Kind: EndDocument})
}

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
