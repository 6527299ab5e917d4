package sax

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
)

// StdParse produces the same modified SAX event stream as Scanner, but built
// on encoding/xml. It serves two purposes: a differential-testing reference
// for the hand-written Scanner, and the heavyweight reference parser in the
// benchmarks (the role the Apache Xerces parser plays in the paper, where
// parsing 9.12 MB took 2.53 s versus 1 s for the authors' faster parser).
func StdParse(data []byte, h Handler) error {
	dec := xml.NewDecoder(bytes.NewReader(data))
	depth := 0
	inDoc := false
	var text strings.Builder
	flush := func() {
		if text.Len() == 0 {
			return
		}
		s := text.String()
		text.Reset()
		if strings.TrimSpace(s) == "" {
			return
		}
		h.Text(s)
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 {
				if !inDoc {
					inDoc = true
					h.StartDocument()
				}
			} else {
				flush()
			}
			h.StartElement(t.Name.Local)
			for _, a := range t.Attr {
				// Skip namespace declarations; the paper's model
				// has no namespaces.
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				an := "@" + a.Name.Local
				h.StartElement(an)
				h.Text(a.Value)
				h.EndElement(an)
			}
			depth++
		case xml.EndElement:
			flush()
			h.EndElement(t.Name.Local)
			depth--
			if depth == 0 {
				h.EndDocument()
				inDoc = false
			}
		case xml.CharData:
			if depth > 0 {
				text.Write(t)
			}
		}
	}
	if depth != 0 {
		return &ParseError{Offset: int(dec.InputOffset()), Msg: "unexpected end of input"}
	}
	return nil
}
