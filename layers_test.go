package xpushstream

import (
	"bytes"
	"fmt"
	"testing"
)

func TestWithQueriesKeepsWarmBase(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]"}, Config{TopDownPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the base machine.
	if _, err := e.FilterDocument([]byte("<m><v>1</v></m>")); err != nil {
		t.Fatal(err)
	}
	baseStates := e.Stats().States

	e, err = e.WithQueries([]string{"/m[v=2]", "/m[w=3]"})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumQueries() != 3 || e.NumLayers() != 1 {
		t.Fatalf("queries=%d layers=%d", e.NumQueries(), e.NumLayers())
	}
	got, err := e.FilterDocument([]byte("<m><v>2</v><w>3</w></m>"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("matches = %v", got)
	}
	got, _ = e.FilterDocument([]byte("<m><v>1</v></m>"))
	if fmt.Sprint(got) != "[0]" {
		t.Fatalf("matches = %v", got)
	}
	// The base machine's states were not discarded by the insertion.
	if e.Stats().States < baseStates {
		t.Errorf("base states lost: %d -> %d", baseStates, e.Stats().States)
	}
}

func TestWithQueriesErrors(t *testing.T) {
	e, err := Compile([]string{"/a"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WithQueries([]string{"not xpath"}); err == nil {
		t.Error("bad added query must fail")
	}
	if e.NumQueries() != 1 || e.NumLayers() != 1 {
		t.Error("failed add must not change the engine")
	}
	n, err := e.WithQueries(nil)
	if err != nil {
		t.Fatalf("empty add: %v", err)
	}
	if n.NumQueries() != 1 || n.NumLayers() != 1 {
		t.Errorf("empty add grew the engine: queries=%d layers=%d", n.NumQueries(), n.NumLayers())
	}
}

func TestWithoutQuery(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[v=1 or v=2]", "//m"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.WithoutQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.FilterDocument([]byte("<m><v>1</v></m>"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 2]" {
		t.Fatalf("matches = %v", got)
	}
	if _, err := n.WithoutQuery(99); err == nil {
		t.Error("out-of-range removal must fail")
	}
}

func TestConsolidate(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e, err = e.WithQueries([]string{"/m[v=2]"}); err != nil {
		t.Fatal(err)
	}
	if e, err = e.WithQueries([]string{"/m[v=3]", "/m[v=4]"}); err != nil {
		t.Fatal(err)
	}
	if e, err = e.WithoutQuery(1); err != nil {
		t.Fatal(err)
	}
	c, mapping, err := e.Consolidated()
	if err != nil {
		t.Fatal(err)
	}
	// Ids survive consolidation: the mapping is the identity on the live
	// ones, and id 1 is not handed out again.
	if fmt.Sprint(mapping) != "[0 -1 2 3]" {
		t.Fatalf("mapping = %v", mapping)
	}
	if c.NumLayers() != 1 || c.NumQueries() != 4 || fmt.Sprint(c.IDs()) != "[0 2 3]" {
		t.Fatalf("layers=%d queries=%d ids=%v", c.NumLayers(), c.NumQueries(), c.IDs())
	}
	got, err := c.FilterDocument([]byte("<m><v>3</v></m>"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[2]" { // /m[v=3] keeps id 2
		t.Fatalf("matches = %v", got)
	}
	next, err := c.WithQueries([]string{"/m[v=5]"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(next.IDs()) != "[0 2 3 4]" {
		t.Fatalf("after consolidation WithQueries gave ids %v, want [0 2 3 4]", next.IDs())
	}
	got, _ = c.FilterDocument([]byte("<m><v>2</v></m>"))
	if len(got) != 0 {
		t.Fatalf("removed filter still fires: %v", got)
	}
	// The receiver keeps its machine, its ids and its mask.
	if e.NumLayers() != 1 || e.NumQueries() != 4 {
		t.Fatalf("receiver changed: layers=%d queries=%d", e.NumLayers(), e.NumQueries())
	}
	got, _ = e.FilterDocument([]byte("<m><v>3</v></m>"))
	if fmt.Sprint(got) != "[2]" {
		t.Fatalf("receiver matches = %v", got)
	}
}

func TestLayeredStream(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e, err = e.WithQueries([]string{"/m[v=2]"}); err != nil {
		t.Fatal(err)
	}
	var per []string
	err = e.FilterBytes([]byte("<m><v>1</v></m><m><v>2</v></m>"), func(m []int) {
		per = append(per, fmt.Sprint(m))
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(per) != "[[0] [1]]" {
		t.Fatalf("per-doc = %v", per)
	}
	// Aggregated stats count the stream once.
	if e.Stats().Documents != 2 {
		t.Errorf("documents = %d", e.Stats().Documents)
	}
}

func TestLayeredTraining(t *testing.T) {
	d, err := ParseDTD("<!ELEMENT m (v)><!ELEMENT v (#PCDATA)>")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile([]string{"/m[v=1]"}, Config{Training: true, DTD: d, TopDownPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if e, err = e.WithQueries([]string{"/m[v=2]"}); err != nil {
		t.Fatal(err)
	}
	got, err := e.FilterDocument([]byte("<m><v>2</v></m>"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1]" {
		t.Fatalf("matches = %v", got)
	}
}

func TestEngineSnapshot(t *testing.T) {
	queries := []string{"/m[v=1]", "/m[v=2]", "//m[w=3]"}
	warm, err := Compile(queries, Config{TopDownPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		doc := fmt.Sprintf("<m><v>%d</v><w>%d</w></m>", i%4, i%5)
		if _, err := warm.FilterDocument([]byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := warm.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cold, err := Compile(queries, Config{TopDownPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.readSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Replay a document the warm engine saw (i=3: v=3, w=3): every
	// lookup must hit the restored tables.
	got, err := cold.FilterDocument([]byte("<m><v>3</v><w>3</w></m>"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[2]" {
		t.Errorf("matches = %v", got)
	}
	if cold.Stats().HitRatio < 0.99 {
		t.Errorf("restored engine hit ratio %.3f", cold.Stats().HitRatio)
	}
	// An unseen value combination is answered correctly too (with lazy
	// construction resuming on top of the snapshot).
	got, err = cold.FilterDocument([]byte("<m><v>2</v><w>3</w></m>"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" {
		t.Errorf("matches = %v", got)
	}

	// A machine grown by splicing is the one Compile builds from the
	// concatenated workload: it takes the snapshot.
	spliced, _ := Compile(queries[:2], Config{TopDownPruning: true})
	spliced, _ = spliced.WithQueries(queries[2:])
	if err := spliced.readSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("spliced engine rejected the compiled engine's snapshot: %v", err)
	}
	if got, err := spliced.FilterDocument([]byte("<m><v>3</v><w>3</w></m>")); err != nil || fmt.Sprint(got) != "[2]" {
		t.Errorf("spliced engine on the restored tables: %v, %v", got, err)
	}
	// Mismatched workload is rejected.
	other, _ := Compile([]string{"/x"}, Config{TopDownPruning: true})
	if err := other.readSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("workload mismatch must be rejected")
	}
}
