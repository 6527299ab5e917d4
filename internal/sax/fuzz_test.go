package sax

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzScanner checks that ByteScanner never panics, that every stream it
// accepts is well-formed (checkWellFormed), and that a scanner reused after
// a parse that failed mid-document, or after one that succeeded, reaches the
// same verdict and events as a fresh one.
func FuzzScanner(f *testing.F) {
	seeds := []string{
		`<a c="3"> <b> 4 </b> </a>`,
		`<a><b/><c x="1"/></a>`,
		`<a>&lt;x&gt; &amp; &#65;</a>`,
		`<a><![CDATA[1 < 2]]></a>`,
		`<?xml version="1.0"?><!-- c --><a/>`,
		`<!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b>1</b></a>`,
		`<a>1</a><b>2</b>`,
		`<a`,
		`</a>`,
		`<a x='1&quot;'/>`,
		`<a>&bogus;</a>`,
		"<a>\n  <b> </b>\n</a>",
		`<a x="1" y="2" z="3">mixed<b/>tail</a>`,
		strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var fresh Collector
		err := ParseBytes([]byte(input), &fresh)
		if err == nil {
			checkWellFormed(t, fresh.Events)
		}
		for _, before := range []string{`<u>t&amp;<![CDATA[x]]><v w="`, `<u k="1">t</u>`} {
			var s ByteScanner
			_ = s.Parse([]byte(before), &Collector{}) // the first fails mid-document on purpose
			var reused Collector
			got := s.Parse([]byte(input), &reused)
			if fmt.Sprint(got) != fmt.Sprint(err) || fmt.Sprint(reused.Events) != fmt.Sprint(fresh.Events) {
				t.Fatalf("after %q: reused scanner %v, err %v; fresh scanner %v, err %v",
					before, reused.Events, got, fresh.Events, err)
			}
		}
	})
}

// checkWellFormed requires an accepted event stream to be well-formed:
// documents and elements balance, text occurs only inside elements, and no
// element's text is whitespace only.
func checkWellFormed(t *testing.T, evs []Event) {
	t.Helper()
	inDoc := false
	var stack []string
	for i, e := range evs {
		switch e.Kind {
		case StartDocument:
			if inDoc {
				t.Fatalf("event %d: nested StartDocument", i)
			}
			inDoc = true
		case EndDocument:
			if !inDoc || len(stack) != 0 {
				t.Fatalf("event %d: bad EndDocument (inDoc=%v depth=%d)", i, inDoc, len(stack))
			}
			inDoc = false
		case StartElement:
			if !inDoc {
				t.Fatalf("event %d: element outside document", i)
			}
			stack = append(stack, e.Name)
		case EndElement:
			if len(stack) == 0 || stack[len(stack)-1] != e.Name {
				t.Fatalf("event %d: unbalanced EndElement(%s)", i, e.Name)
			}
			stack = stack[:len(stack)-1]
		case Text:
			if len(stack) == 0 {
				t.Fatalf("event %d: text outside elements: %q", i, e.Data)
			}
			if strings.TrimSpace(e.Data) == "" && !IsAttr(stack[len(stack)-1]) {
				t.Fatalf("event %d: whitespace-only text leaked: %q", i, e.Data)
			}
		}
	}
	if inDoc || len(stack) != 0 {
		t.Fatalf("stream ended inside a document (depth=%d)", len(stack))
	}
}
