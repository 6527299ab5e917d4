package sax

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
)

// StdParse produces the modified SAX event stream of ByteScanner, built on
// encoding/xml. It is the judge of ByteScanner in the differential tests
// (DESIGN.md "What a verdict checks" lists where the two part ways), the
// reference evaluator's parser (internal/naive), and the heavyweight
// reference parser in the benchmarks (the role the Apache Xerces parser
// plays in the paper, where parsing 9.12 MB took 2.53 s versus 1 s for the
// authors' faster parser).
//
// Names are reported as written: a prefixed name keeps its prefix, and a
// namespace declaration is an attribute (@xmlns, @xmlns:p) like any other.
// encoding/xml reads the tokens (RawToken, which neither resolves prefixes
// nor matches tags); StdParse matches each close tag against its open tag
// itself.
func StdParse(data []byte, h Handler) error {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var stack []string
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
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == 0 {
				h.StartDocument()
			} else {
				flush()
			}
			name := written(t.Name)
			h.StartElement(name)
			for _, a := range t.Attr {
				an := "@" + written(a.Name)
				h.StartElement(an)
				h.Text(a.Value)
				h.EndElement(an)
			}
			stack = append(stack, name)
		case xml.EndElement:
			name := written(t.Name)
			if len(stack) == 0 || stack[len(stack)-1] != name {
				return &ParseError{Offset: int(dec.InputOffset()), Msg: "unmatched end tag </" + name + ">"}
			}
			flush()
			h.EndElement(name)
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				h.EndDocument()
			}
		case xml.CharData:
			if len(stack) > 0 {
				text.Write(t)
			}
		}
	}
	if len(stack) != 0 {
		return &ParseError{Offset: int(dec.InputOffset()), Msg: "unexpected end of input"}
	}
	return nil
}

// written returns a name as the document spells it.
func written(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}
