// Package sax provides the modified SAX event model of Sec. 2 of the paper
// and two streaming XML parsers that produce it: a hand-written Scanner (the
// paper's "faster parser") and a reference parser built on encoding/xml
// (standing in for the Apache parser the paper compares against).
//
// The event model has five event types:
//
//	startDocument()
//	startElement(a)
//	text(s)
//	endElement(a)
//	endDocument()
//
// Attributes are treated like elements, per the paper: an attribute c="3" on
// element a is delivered as startElement(@c), text(3), endElement(@c),
// immediately after startElement(a) and before any of a's content. Attribute
// event names carry the "@" prefix.
package sax

import (
	"fmt"
	"strings"
)

// EventKind identifies one of the five SAX event types.
type EventKind uint8

const (
	// StartDocument opens a document.
	StartDocument EventKind = iota
	// StartElement opens an element or attribute (name has "@" prefix).
	StartElement
	// Text delivers character data (of an element or attribute value).
	Text
	// EndElement closes an element or attribute.
	EndElement
	// EndDocument closes a document.
	EndDocument
)

func (k EventKind) String() string {
	switch k {
	case StartDocument:
		return "startDocument"
	case StartElement:
		return "startElement"
	case Text:
		return "text"
	case EndElement:
		return "endElement"
	case EndDocument:
		return "endDocument"
	default:
		return "event(?)"
	}
}

// Event is one parsed SAX event.
type Event struct {
	Kind EventKind
	// Name is the element label for StartElement/EndElement; attribute
	// labels are prefixed with '@'.
	Name string
	// Data is the character data for Text events.
	Data string
}

func (e Event) String() string {
	switch e.Kind {
	case StartElement, EndElement:
		return fmt.Sprintf("%s(%s)", e.Kind, e.Name)
	case Text:
		return fmt.Sprintf("text(%q)", e.Data)
	default:
		return e.Kind.String()
	}
}

// Handler receives SAX events. It mirrors the five call-back functions of
// Fig. 2 of the paper.
type Handler interface {
	StartDocument()
	StartElement(name string)
	Text(data string)
	EndElement(name string)
	EndDocument()
}

// IsAttr reports whether an event name denotes an attribute pseudo-element.
func IsAttr(name string) bool { return len(name) > 0 && name[0] == '@' }

// EscapeText escapes character data for embedding in XML element content.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "<>&") {
		return s
	}
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	return strings.ReplaceAll(s, ">", "&gt;")
}

// EscapeAttr escapes an attribute value for embedding in a double-quoted
// attribute.
func EscapeAttr(s string) string {
	s = EscapeText(s)
	if strings.ContainsRune(s, '"') {
		s = strings.ReplaceAll(s, `"`, "&quot;")
	}
	return s
}

// ParseError reports a malformed-XML failure with a byte offset.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: %s at offset %d", e.Msg, e.Offset)
}

// Drive feeds a sequence of events to a handler.
func Drive(events []Event, h Handler) {
	for _, e := range events {
		e.drive(h)
	}
}

// drive delivers e to h.
func (e Event) drive(h Handler) {
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

// Collector is a Handler that records the events it receives, for
// differential comparison of parsers in tests.
type Collector struct {
	Events []Event
}

// Reset drops recorded events, retaining capacity for reuse across
// documents.
func (c *Collector) Reset() { c.Events = c.Events[:0] }

// StartDocument implements Handler.
func (c *Collector) StartDocument() {
	c.Events = append(c.Events, Event{Kind: StartDocument})
}

// StartElement implements Handler.
func (c *Collector) StartElement(name string) {
	c.Events = append(c.Events, Event{Kind: StartElement, Name: name})
}

// Text implements Handler.
func (c *Collector) Text(data string) {
	c.Events = append(c.Events, Event{Kind: Text, Data: data})
}

// EndElement implements Handler.
func (c *Collector) EndElement(name string) {
	c.Events = append(c.Events, Event{Kind: EndElement, Name: name})
}

// EndDocument implements Handler.
func (c *Collector) EndDocument() {
	c.Events = append(c.Events, Event{Kind: EndDocument})
}
