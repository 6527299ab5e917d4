package sax

import (
	"bufio"
	"bytes"
	"io"
)

// Splitter incrementally cuts a possibly unbounded reader into complete XML
// documents, so a broker can process an infinite stream with memory bounded
// by the largest single document rather than the whole stream. It tracks
// element nesting with a lightweight tokenizer (tags, comments, PIs, CDATA,
// DOCTYPE) without building events; each returned document is then handed
// to the full Scanner.
type Splitter struct {
	r   *bufio.Reader
	buf bytes.Buffer
	// MaxDocBytes bounds a single document (0 = 64 MiB default).
	MaxDocBytes int
}

// NewSplitter wraps a reader.
func NewSplitter(r io.Reader) *Splitter {
	return &Splitter{r: bufio.NewReaderSize(r, 64<<10)}
}

func (s *Splitter) maxDoc() int {
	if s.MaxDocBytes > 0 {
		return s.MaxDocBytes
	}
	return 64 << 20
}

// Next returns the bytes of the next complete document (from its first '<'
// through the close of its root element). It returns io.EOF when the stream
// ends cleanly between documents. The returned slice is valid until the
// next call.
func (s *Splitter) Next() ([]byte, error) {
	s.buf.Reset()
	depth := 0
	started := false
	for {
		c, err := s.r.ReadByte()
		if err == io.EOF {
			if !started && onlySpace(s.buf.Bytes()) {
				return nil, io.EOF
			}
			return nil, &ParseError{Offset: s.buf.Len(), Msg: "unexpected end of stream inside a document"}
		}
		if err != nil {
			return nil, err
		}
		s.buf.WriteByte(c)
		if s.buf.Len() > s.maxDoc() {
			return nil, &ParseError{Offset: s.buf.Len(), Msg: "document exceeds size bound"}
		}
		if c != '<' {
			continue
		}
		// Inspect the construct that starts here.
		kind, selfClosing, err := s.copyMarkup()
		if err != nil {
			return nil, err
		}
		switch kind {
		case markupStart:
			started = true
			if !selfClosing {
				depth++
			}
		case markupEnd:
			depth--
			if depth < 0 {
				return nil, &ParseError{Offset: s.buf.Len(), Msg: "unbalanced end tag in stream"}
			}
		}
		if started && depth == 0 {
			// Trim inter-document whitespace carried in from before
			// this document's first tag.
			return bytes.TrimLeft(s.buf.Bytes(), " \t\r\n"), nil
		}
	}
}

type markupKind uint8

const (
	markupStart markupKind = iota
	markupEnd
	markupOther // comment, PI, DOCTYPE, CDATA
)

// copyMarkup consumes one markup construct after '<' into the buffer and
// classifies it.
func (s *Splitter) copyMarkup() (markupKind, bool, error) {
	c, err := s.r.ReadByte()
	if err != nil {
		return 0, false, &ParseError{Offset: s.buf.Len(), Msg: "unexpected end of stream after '<'"}
	}
	s.buf.WriteByte(c)
	switch c {
	case '/':
		if err := s.copyUntilByte('>'); err != nil {
			return 0, false, err
		}
		return markupEnd, false, nil
	case '?':
		if err := s.copyUntilSeq("?>"); err != nil {
			return 0, false, err
		}
		return markupOther, false, nil
	case '!':
		// Comment, CDATA, or DOCTYPE.
		peek, _ := s.r.Peek(7)
		switch {
		case bytes.HasPrefix(peek, []byte("--")):
			if err := s.copyUntilSeq("-->"); err != nil {
				return 0, false, err
			}
		case bytes.HasPrefix(peek, []byte("[CDATA[")):
			if err := s.copyUntilSeq("]]>"); err != nil {
				return 0, false, err
			}
		default:
			// DOCTYPE (possibly with an internal subset).
			if err := s.copyDoctype(); err != nil {
				return 0, false, err
			}
		}
		return markupOther, false, nil
	default:
		// Start tag: copy to '>' skipping quoted attribute values.
		selfClosing, err := s.copyStartTag()
		return markupStart, selfClosing, err
	}
}

func (s *Splitter) copyStartTag() (bool, error) {
	prev := byte(0)
	var quote byte
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return false, &ParseError{Offset: s.buf.Len(), Msg: "unterminated start tag"}
		}
		s.buf.WriteByte(c)
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			prev = c
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '>':
			return prev == '/', nil
		}
		prev = c
	}
}

func (s *Splitter) copyUntilByte(stop byte) error {
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return &ParseError{Offset: s.buf.Len(), Msg: "unterminated markup"}
		}
		s.buf.WriteByte(c)
		if c == stop {
			return nil
		}
	}
}

func (s *Splitter) copyUntilSeq(stop string) error {
	matched := 0
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return &ParseError{Offset: s.buf.Len(), Msg: "unterminated markup"}
		}
		s.buf.WriteByte(c)
		if c == stop[matched] {
			matched++
			if matched == len(stop) {
				return nil
			}
		} else if c == stop[0] {
			matched = 1
		} else {
			matched = 0
		}
	}
}

// copyDoctype consumes a DOCTYPE declaration incl. internal subset.
func (s *Splitter) copyDoctype() error {
	depth := 0
	for {
		c, err := s.r.ReadByte()
		if err != nil {
			return &ParseError{Offset: s.buf.Len(), Msg: "unterminated DOCTYPE"}
		}
		s.buf.WriteByte(c)
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return nil
			}
		}
	}
}

func onlySpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) && c != '<' {
			return false
		}
	}
	return true
}

// StreamDocuments reads documents from r one at a time and calls handle for
// each, keeping memory bounded by the largest document. handle may return
// an error to stop the stream.
func StreamDocuments(r io.Reader, handle func(doc []byte) error) error {
	return StreamDocumentsLimit(r, 0, handle)
}

// StreamDocumentsLimit is StreamDocuments with an explicit per-document
// size bound (0 selects the splitter's 64 MiB default): a document that
// exceeds maxDocBytes fails the stream with a *ParseError instead of
// buffering without bound.
func StreamDocumentsLimit(r io.Reader, maxDocBytes int, handle func(doc []byte) error) error {
	sp := NewSplitter(r)
	sp.MaxDocBytes = maxDocBytes
	for {
		doc, err := sp.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := handle(doc); err != nil {
			return err
		}
	}
}
