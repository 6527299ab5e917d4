package xpushstream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/naive"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// skipModel is what the filters of an engine's layers allow to be skipped
// (DESIGN.md "Skipping what no filter can see"): the labels they name, and
// whether a // or * step (@* step) lets a transition fire on an element
// (attribute) no filter names.
type skipModel struct {
	named              map[string]bool
	anyElem, anyAttr   bool
	strictMixedContent bool
}

func newSkipModel(filters []*xpath.Filter, strict bool) *skipModel {
	m := &skipModel{named: map[string]bool{}, strictMixedContent: strict}
	var path func(p *xpath.Path)
	var expr func(e xpath.Expr)
	path = func(p *xpath.Path) {
		for _, st := range p.Steps {
			switch st.Test.Kind {
			case xpath.Element:
				m.named[st.Test.Name] = true
			case xpath.Attribute:
				m.named["@"+st.Test.Name] = true
			case xpath.AnyElement:
				m.anyElem = true
			case xpath.AnyAttribute:
				m.anyAttr = true
			}
			if st.Axis == xpath.Descendant {
				m.anyElem = true
			}
			for _, q := range st.Preds {
				expr(q)
			}
		}
	}
	expr = func(e xpath.Expr) {
		switch x := e.(type) {
		case *xpath.And:
			expr(x.L)
			expr(x.R)
		case *xpath.Or:
			expr(x.L)
			expr(x.R)
		case *xpath.Not:
			expr(x.X)
		case *xpath.Exists:
			path(x.Path)
		case *xpath.Cmp:
			path(x.Path)
		}
	}
	for _, f := range filters {
		path(f.Path)
	}
	return m
}

// skipped reports whether the model lets the engine skip node c.
func (m *skipModel) skipped(c *naive.Node) bool {
	return !m.strictMixedContent && !m.named[c.Name] &&
		(c.Kind == naive.ElementNode && !m.anyElem || c.Kind == naive.AttrNode && !m.anyAttr)
}

// skips counts the outermost elements and attributes of the tree that the
// model lets the engine skip.
func (m *skipModel) skips(n *naive.Node) int {
	count := 0
	for _, c := range n.Children {
		switch {
		case c.Kind == naive.TextNode:
		case m.skipped(c):
			count++
		default:
			count += m.skips(c)
		}
	}
	return count
}

// mixed counts the mixed-content events a machine sees in the tree (an
// element child after text, or text after an element child) outside the
// skipped subtrees; a skipped element still counts as a child.
func (m *skipModel) mixed(n *naive.Node) int {
	count := 0
	text, elem := false, false
	for _, c := range n.Children {
		switch c.Kind {
		case naive.TextNode:
			if elem {
				count++
			}
			text = true
		case naive.ElementNode:
			if text {
				count++
			}
			elem = true
		}
		if c.Kind != naive.TextNode && !m.skipped(c) {
			count += m.mixed(c)
		}
	}
	return count
}

// hasMixed reports whether some element of the tree holds both text and an
// element child.
func hasMixed(n *naive.Node) bool {
	text, elem := false, false
	for _, c := range n.Children {
		text = text || c.Kind == naive.TextNode
		elem = elem || c.Kind == naive.ElementNode
		if hasMixed(c) {
			return true
		}
	}
	return n.Kind == naive.ElementNode && text && elem
}

// foreignDoc decorates a generated document with what no filter names:
// attributes on its start tags, subtrees after them (holding workload labels,
// foreign attributes and mixed content of their own), and, when mixed is
// set, text beside the children of workload elements.
func foreignDoc(r *rand.Rand, doc []byte, mixed bool) []byte {
	var b strings.Builder
	s := string(doc)
	for {
		i := strings.IndexByte(s, '<')
		if i < 0 {
			b.WriteString(s)
			return []byte(b.String())
		}
		j := strings.IndexByte(s[i:], '>') + i
		tag := s[i : j+1]
		b.WriteString(s[:i])
		s = s[j+1:]
		if tag[1] == '/' || tag[len(tag)-2] == '/' {
			b.WriteString(tag)
			continue
		}
		name := strings.IndexAny(tag, " >")
		b.WriteString(tag[:name])
		if r.Intn(4) == 0 {
			fmt.Fprintf(&b, ` zq="%d"`, r.Intn(9))
		}
		b.WriteString(tag[name:])
		if mixed && r.Intn(8) == 0 && strings.HasPrefix(s, "<") && !strings.HasPrefix(s, "</") {
			fmt.Fprintf(&b, "%d", r.Intn(2000))
		}
		if r.Intn(6) == 0 && strings.HasPrefix(s, "<") {
			fmt.Fprintf(&b, `<zfx zk="%d"><ProteinEntry id="PIR1"><summary><length>%d</length></summary></ProteinEntry>`,
				r.Intn(9), r.Intn(2000))
			if mixed {
				b.WriteString(`1984<zfy/>`)
			}
			b.WriteString(`<uid zq="1">U1</uid></zfx>`)
		}
	}
}

// TestSkipDifferential checks label-based subtree skipping against the naive
// oracle under all 16 flag combinations: on workloads without * or //, on
// documents full of elements and attributes no filter names (and mixed
// content), across layers where a new layer names a label the base does not,
// and with a // layer, which turns element skipping off. Each document's skip
// count must equal what the filters allow, so the test fails if skipping
// never fires as well as when it fires wrongly. StrictMixedContent skips
// nothing and reports mixed content wherever it is, skipped labels included.
func TestSkipDifferential(t *testing.T) {
	ds := datagen.ProteinLike()
	// Base filters avoid the labels the second layer brings in.
	var base []*xpath.Filter
	for _, f := range workload.Generate(ds, workload.Params{
		Seed: 44, NumQueries: 240, MeanPreds: 2, NestedPredProb: 0.3, OrProb: 0.2, NotProb: 0.1,
	}) {
		if s := f.String(); !strings.Contains(s, "keyword") && !strings.Contains(s, "genetics") {
			base = append(base, f)
		}
	}
	// Filters that the generated documents match often.
	for _, q := range []string{
		`/ProteinDatabase/ProteinEntry[header/uid]`,
		`/ProteinDatabase/ProteinEntry[reference/refinfo[year > 1985]]`,
		`/ProteinDatabase/ProteinEntry[not(summary/type = "fragment")]`,
		`/ProteinDatabase/ProteinEntry/feature[@label]`,
	} {
		base = append(base, xpath.MustParse(q))
	}
	layered := []*xpath.Filter{
		xpath.MustParse(`/ProteinDatabase/ProteinEntry[keywords/keyword = "transport"]`),
		xpath.MustParse(`/ProteinDatabase/ProteinEntry/genetics[introns > 10]`),
	}
	descendant := xpath.MustParse(`//xref[db = "PDB"]`)
	texts := func(fs []*xpath.Filter) []string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = f.String()
		}
		return out
	}

	r := rand.New(rand.NewSource(44))
	gen := datagen.NewGenerator(ds, 1500)
	var docs, mixedDocs [][]byte
	for i := 0; i < 6; i++ {
		doc := gen.GenerateDocument()
		docs = append(docs, foreignDoc(r, doc, false))
		mixedDocs = append(mixedDocs, foreignDoc(r, doc, true))
	}

	// check filters every document on e, whose layers hold filters (ids in
	// order), traced and untraced, against the oracle and the skip model.
	rec := NewTraceRecorder(1, 0)
	var tailStates int64 // created above the base layer, by traced documents
	check := func(t *testing.T, e *Engine, filters []*xpath.Filter, strict bool, docs [][]byte) (matches, skipped int) {
		t.Helper()
		oracle := naive.NewEngine(filters)
		model := newSkipModel(filters, strict)
		for i := range 2 * len(docs) {
			di, doc := i/2, docs[i/2]
			trees, err := naive.Build(doc)
			if err != nil || len(trees) != 1 {
				t.Fatalf("doc %d: %d trees, %v", di, len(trees), err)
			}
			want, _ := oracle.FilterDocument(doc)
			var tc *TraceCtx // the first pass over a document, while it may grow states
			if i%2 == 0 {
				tc = rec.Begin("publish")
			}
			before := e.Stats()
			got, err := AppendMatches[int](e, nil, doc, tc, TraceRoot)
			after := e.Stats()
			if tc != nil {
				tailStates += checkFilterSpan(t, tc, e.NumLayers(), int64(after.States-before.States))
			}
			tc.Finish()
			skips := int(after.SkippedElements - before.SkippedElements)
			if strict && hasMixed(trees[0]) {
				if err == nil {
					t.Fatalf("doc %d: strict mode accepted mixed content", di)
				}
			} else if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("doc %d (%d layers): got %v, err %v; oracle %v", di, e.NumLayers(), got, err, want)
			}
			if w := model.skips(trees[0]); skips != w {
				t.Fatalf("doc %d (%d layers): %d elements skipped, the filters allow %d", di, e.NumLayers(), skips, w)
			}
			// Every layer sees the same events; Stats counts them once.
			if n, w := after.MixedContentEvents-before.MixedContentEvents, int64(model.mixed(trees[0])); n != w {
				t.Fatalf("doc %d (%d layers): %d mixed-content events, want %d", di, e.NumLayers(), n, w)
			}
			matches += len(got)
			skipped += skips
		}
		return matches, skipped
	}

	for flags := 0; flags < 16; flags++ {
		cfg := Config{TopDownPruning: flags&1 != 0, EarlyNotification: flags&4 != 0, DisablePrecompute: flags&8 != 0}
		if flags&2 != 0 {
			cfg.OrderOptimization, cfg.DTD = true, &DTD{d: ds.DTD}
		}
		name := fmt.Sprintf("topdown=%v,order=%v,early=%v,precompute=%v",
			cfg.TopDownPruning, cfg.OrderOptimization, cfg.EarlyNotification, !cfg.DisablePrecompute)
		t.Run(name, func(t *testing.T) {
			e, err := Compile(texts(base), cfg)
			if err != nil {
				t.Fatal(err)
			}
			filters := base
			matched, skipped := 0, 0
			for step, add := range [][]*xpath.Filter{nil, layered, {descendant}} {
				if add != nil {
					if e, err = e.WithQueries(texts(add)); err != nil {
						t.Fatal(err)
					}
					filters = append(filters[:len(filters):len(filters)], add...)
				}
				if (step > 0) != (e.NumLayers() > 1) {
					t.Fatalf("step %d: %d layers", step, e.NumLayers())
				}
				for _, set := range [][][]byte{docs, mixedDocs} {
					m, s := check(t, e, filters, false, set)
					matched, skipped = matched+m, skipped+s
				}
			}
			if matched == 0 || skipped == 0 {
				t.Fatalf("vacuous: %d matches, %d skipped elements", matched, skipped)
			}
		})
	}
	if tailStates == 0 {
		t.Error("vacuous: no traced document created a state above the base layer")
	}

	t.Run("strict", func(t *testing.T) {
		cfg := Config{StrictMixedContent: true}
		e, err := Compile(texts(base), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e, err = e.WithQueries(texts(layered)); err != nil {
			t.Fatal(err)
		}
		filters := append(base[:len(base):len(base)], layered...)
		if m, _ := check(t, e, filters, true, docs); m == 0 {
			t.Fatal("vacuous: no matches")
		}
		mixed := 0
		for _, doc := range mixedDocs {
			trees, _ := naive.Build(doc)
			if hasMixed(trees[0]) {
				mixed++
			}
		}
		if mixed == 0 {
			t.Fatal("vacuous: no mixed content")
		}
		check(t, e, filters, true, mixedDocs)
	})
}

// TestSkipZeroAllocs checks that a skipping document costs no allocation on
// a warm engine, and that an engine with no filters skips the root element
// and still owes the document its well-formedness verdict.
func TestSkipZeroAllocs(t *testing.T) {
	e, err := Compile([]string{"/m[v=1]", "/m[@k=2]"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<m k="2" z="9"><v>1</v><x a="1"><y>2</y>3</x><v>5</v><x/></m>`)
	for i := 0; i < 5; i++ {
		if _, err := AppendMatches[int](e, nil, doc, nil, TraceRoot); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats().SkippedElements
	buf := make([]int, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		buf, err = AppendMatches(e, buf[:0], doc, nil, TraceRoot)
	}); n != 0 || err != nil {
		t.Errorf("%.1f allocations per document (err %v), want 0", n, err)
	}
	if fmt.Sprint(buf) != "[0 1]" {
		t.Errorf("matches = %v, want [0 1]", buf)
	}
	// @z and both x; AllocsPerRun makes one warm-up run besides its 100.
	if got := e.Stats().SkippedElements - before; got != 3*101 {
		t.Errorf("%d elements skipped over 101 documents, want 3 each", got)
	}

	empty, err := Compile(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := empty.FilterDocument(doc); err != nil || got != nil {
		t.Errorf("no filters: matches %v, err %v", got, err)
	}
	if got := empty.Stats(); got.SkippedElements != 1 || got.Events != 3 {
		t.Errorf("no filters: %d elements skipped and %d events, want 1 (the root) and 3", got.SkippedElements, got.Events)
	}
	if _, err := empty.FilterDocument([]byte(`<m><v>1</w></m>`)); err == nil {
		t.Error("no filters: a malformed document was accepted")
	}
}

// checkFilterSpan checks the machine telemetry on a traced document's filter
// span against the engine it ran on: the layer count, and the states created
// (all of them, single-threaded here) with their share above the base layer,
// which it returns.
func checkFilterSpan(t *testing.T, tc *TraceCtx, layers int, states int64) int64 {
	t.Helper()
	attr := func(key string) int64 {
		_, v, ok := tc.SpanCost("filter", key)
		if !ok {
			t.Fatalf("no filter span")
		}
		return v
	}
	created, tail := attr("states_created"), attr("tail_states_created")
	if n := attr("layers"); n != int64(layers) {
		t.Fatalf("filter span: layers %d, the engine runs %d", n, layers)
	}
	if created != states || tail < 0 || tail > created || layers == 1 && tail != 0 {
		t.Fatalf("filter span on %d layers: states_created %d, tail_states_created %d; the engine grew %d states",
			layers, created, tail, states)
	}
	return tail
}
