package sax

import (
	"bytes"
	"fmt"
	"io"
	"slices"
)

// StreamDocuments reads concatenated documents from r and calls handle with
// each one as soon as its root element closes, keeping memory bounded by the
// largest document. handle may return an error to stop the stream.
func StreamDocuments(r io.Reader, handle func(doc []byte) error) error {
	return StreamDocumentsLimit(r, 0, handle)
}

// StreamDocumentsLimit is StreamDocuments with an explicit per-document
// size bound (0 selects 64 MiB): a document longer than maxDocBytes fails
// the stream with a *ParseError instead of buffering without bound.
//
// The stream is checked as ParseBytes checks it whole: handle receives the
// documents ParseBytes delivers, each from its first non-space byte through
// its root's close tag, and a malformed stream fails with ParseBytes's
// error, at its stream offset. Only the document's first maxDocBytes bytes
// are checked: if they neither close it nor hold an error, the size bound
// is the error. doc is valid only until handle returns.
func StreamDocumentsLimit(r io.Reader, maxDocBytes int, handle func(doc []byte) error) error {
	if maxDocBytes <= 0 {
		maxDocBytes = 64 << 20
	}
	d := &docStream{handle: handle, max: maxDocBytes, more: true, win: make([]byte, 0, 64<<10)}
	d.s.MaxDepth = DefaultMaxDepth
	for {
		d.compact()
		if len(d.win) == cap(d.win) {
			d.win = slices.Grow(d.win, len(d.win))
		}
		n, err := r.Read(d.win[len(d.win):cap(d.win)])
		d.win = d.win[:len(d.win)+n]
		if err == io.EOF {
			d.more = false
			return d.scan()
		}
		if n > 0 {
			if err := d.scan(); err != nil {
				return err
			}
		}
		if err != nil {
			return err
		}
	}
}

// docStream cuts documents out of a read window. Its scanner runs over the
// window with the docStream as its handler, which ignores every event but
// EndDocument: there the document that just closed is handed over.
type docStream struct {
	discard
	s      ByteScanner
	handle func(doc []byte) error
	err    error // handle's error
	max    int
	more   bool // the stream may go on past the window

	win   []byte // the bytes read and not yet dropped
	base  int    // stream offset of the window's first byte
	start int    // window offset of the previous document's end
	seen  int    // window length at the last scan: the bytes after are new
}

// EndDocument hands over the document whose root just closed. On an error
// it ends the scan: the scanner's input is cut at the document's end.
func (d *docStream) EndDocument() {
	s := &d.s
	first := skipSpace(s.data, d.start)
	d.start = s.pos
	if d.err = d.handle(s.data[first:s.pos]); d.err != nil {
		s.data = s.data[:s.pos]
		return
	}
	d.view()
}

// view shows the scanner the window up to the size bound of the document
// after the previous one. More input may follow what it sees if the window
// or the stream goes on past it.
func (d *docStream) view() {
	s := &d.s
	s.data = d.win[:min(len(d.win), skipSpace(d.win, d.start)+d.max)]
	s.more = d.more || len(s.data) < len(d.win)
}

// compact drops the window's bytes before the current document (those of
// the documents handed over and the space after them).
func (d *docStream) compact() {
	s := &d.s
	keep := skipSpace(d.win[:s.pos], d.start)
	if keep == 0 {
		return
	}
	d.win = d.win[:copy(d.win, d.win[keep:])]
	d.base += keep
	d.start = 0
	s.pos -= keep
	d.seen -= keep
	for i := range s.stack {
		s.stack[i].start -= keep
		s.stack[i].end -= keep
	}
}

// scan runs the scanner over the window from where the last scan stopped.
// A scan that runs out of input inside a construct stops at the construct's
// start and resumes there when more input arrives, so each byte is read
// again only while the construct it belongs to is incomplete. Every markup
// construct ends with '>': within the bound, one is not read again before a
// '>' arrives.
func (d *docStream) scan() error {
	s := &d.s
	d.view()
	if !d.more || len(s.data) < len(d.win) || d.win[s.pos] != '<' || bytes.IndexByte(d.win[d.seen:], '>') >= 0 {
		s.h, s.textMode = d, textNone // undelivered text compact may have moved
		err := s.run()
		switch {
		case d.err != nil:
			return d.err
		case err != nil && err != io.ErrUnexpectedEOF:
			err.(*ParseError).Offset += d.base
			return err
		case len(s.data) < len(d.win):
			return &ParseError{Offset: d.base + len(s.data), Msg: fmt.Sprintf("document exceeds size bound of %d bytes", d.max)}
		}
	}
	d.seen = len(d.win)
	return nil
}
