package sax

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Property: escaping then parsing recovers the original text, for both
// element content and attribute values.
func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		// The XML data model cannot represent most control characters;
		// restrict to printable-ish content the generators produce.
		clean := make([]rune, 0, len(s))
		for _, r := range s {
			if r == '�' || r < 0x20 && r != '\t' && r != '\n' {
				continue
			}
			clean = append(clean, r)
		}
		text := string(clean)
		doc := fmt.Sprintf(`<a x="%s">%s</a>`, EscapeAttr(text), EscapeText(text))
		var c Collector
		if err := ParseBytes([]byte(doc), &c); err != nil {
			t.Logf("parse failed for %q: %v", text, err)
			return false
		}
		var gotAttr, gotText string
		for i, e := range c.Events {
			if e.Kind == StartElement && e.Name == "@x" {
				gotAttr = c.Events[i+1].Data
			}
			if e.Kind == Text && i > 0 && c.Events[i-1].Kind != StartElement {
				gotText = e.Data
			}
		}
		// Text events inside <a> follow </@x>; find the element text.
		for i, e := range c.Events {
			if e.Kind == EndElement && e.Name == "@x" && i+1 < len(c.Events) &&
				c.Events[i+1].Kind == Text {
				gotText = c.Events[i+1].Data
			}
		}
		if gotAttr != text {
			t.Logf("attr mismatch: %q -> %q", text, gotAttr)
			return false
		}
		// Whitespace-only element text is dropped by design.
		if isAllSpace(text) {
			return true
		}
		if gotText != text {
			t.Logf("text mismatch: %q -> %q", text, gotText)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func isAllSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isSpace(s[i]) {
			return false
		}
	}
	return true
}

func TestEscapeBasics(t *testing.T) {
	if EscapeText("a<b&c>d") != "a&lt;b&amp;c&gt;d" {
		t.Errorf("EscapeText: %q", EscapeText("a<b&c>d"))
	}
	if EscapeText("plain") != "plain" {
		t.Error("plain must pass through")
	}
	if EscapeAttr(`say "hi"`) != "say &quot;hi&quot;" {
		t.Errorf("EscapeAttr: %q", EscapeAttr(`say "hi"`))
	}
}
