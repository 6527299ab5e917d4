package datagen

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sax"
)

func TestGenerateParses(t *testing.T) {
	for _, name := range []string{"protein", "nasa"} {
		ds, ok := ByName(name)
		if !ok {
			t.Fatalf("dataset %s missing", name)
		}
		g := NewGenerator(ds, 1)
		data := g.GenerateBytes(200 << 10)
		if len(data) < 200<<10 {
			t.Fatalf("%s: generated only %d bytes", name, len(data))
		}
		var c sax.Collector
		if err := sax.ParseBytes(data, &c); err != nil {
			t.Fatalf("%s: generated XML does not parse: %v", name, err)
		}
		docs := 0
		depth, maxDepth := 0, 0
		for _, e := range c.Events {
			switch e.Kind {
			case sax.StartDocument:
				docs++
			case sax.StartElement:
				depth++
				if depth > maxDepth {
					maxDepth = depth
				}
			case sax.EndElement:
				depth--
			}
		}
		if docs == 0 {
			t.Fatalf("%s: no documents", name)
		}
		// Attribute pseudo-elements add one level past the DTD cap.
		if maxDepth > ds.DepthCap+1 {
			t.Errorf("%s: depth %d exceeds cap %d", name, maxDepth, ds.DepthCap)
		}
		if name == "protein" && maxDepth < 6 {
			t.Errorf("protein: max depth %d, want near 7", maxDepth)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ds := ProteinLike()
	a := NewGenerator(ds, 42).GenerateBytes(50 << 10)
	b := NewGenerator(ds, 42).GenerateBytes(50 << 10)
	if !bytes.Equal(a, b) {
		t.Error("same seed must generate identical data")
	}
	c := NewGenerator(ds, 43).GenerateBytes(50 << 10)
	if bytes.Equal(a, c) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateAgainstStdParser(t *testing.T) {
	for _, name := range []string{"protein", "nasa"} {
		ds, _ := ByName(name)
		data := NewGenerator(ds, 7).GenerateBytes(100 << 10)
		var a, b sax.Collector
		if err := sax.ParseBytes(data, &a); err != nil {
			t.Fatalf("%s scanner: %v", name, err)
		}
		if err := sax.StdParse(data, &b); err != nil {
			t.Fatalf("%s std: %v", name, err)
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("%s: event counts differ: %d vs %d", name, len(a.Events), len(b.Events))
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("%s: event %d differs: %v vs %v", name, i, a.Events[i], b.Events[i])
			}
		}
	}
}

func TestNASARecursion(t *testing.T) {
	ds := NASALike()
	if !ds.DTD.IsRecursive() {
		t.Error("NASA-like DTD must be recursive")
	}
	if ProteinLike().DTD.IsRecursive() {
		t.Error("Protein-like DTD must not be recursive")
	}
	if got := ProteinLike().DTD.MaxDepth(50); got != 7 {
		t.Errorf("protein depth = %d, want 7", got)
	}
}

func TestPoolSampling(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := &Pool{Kind: IntPool, Lo: 5, Hi: 9}
	for i := 0; i < 100; i++ {
		v := p.Sample(r)
		if v < "5" || v > "9" {
			t.Fatalf("out of range: %s", v)
		}
	}
	skewed := &Pool{Kind: StrPool, Words: []string{"a", "b", "c", "d", "e", "f", "g", "h"}, Skew: 1.0}
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[skewed.Sample(r)]++
	}
	if counts["a"] <= counts["h"] {
		t.Errorf("skew should favour early values: a=%d h=%d", counts["a"], counts["h"])
	}
	single := &Pool{Kind: StrPool, Words: []string{"only"}}
	if single.Sample(r) != "only" {
		t.Error("singleton pool")
	}
}

func TestGenerateDocument(t *testing.T) {
	doc := NewGenerator(ProteinLike(), 3).GenerateDocument()
	var c sax.Collector
	if err := sax.ParseBytes(doc, &c); err != nil {
		t.Fatal(err)
	}
	if c.Events[1].Name != "ProteinDatabase" {
		t.Errorf("root = %s", c.Events[1].Name)
	}
}
