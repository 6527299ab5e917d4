package xpushstream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/naive"
	"repro/internal/workload"
	"repro/internal/xpath"
)

// TestWithQueriesAddsLayer: deriving with extra filters keeps existing
// matches and adds the new filter's, without mutating the receiver.
func TestWithQueriesAddsLayer(t *testing.T) {
	base, err := Compile([]string{`//order[total > 1000]`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<order priority="high"><total>2500</total></order>`)
	if m, err := base.FilterDocument(doc); err != nil || len(m) != 1 {
		t.Fatalf("base: matches=%v err=%v", m, err)
	}

	next, err := base.WithQueries([]string{`//order[@priority = "high"]`})
	if err != nil {
		t.Fatal(err)
	}
	m, err := next.FilterDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[0] != 0 || m[1] != 1 {
		t.Fatalf("derived matches = %v, want [0 1]", m)
	}

	// The receiver is unchanged: same query set, same matches.
	if got := base.NumQueries(); got != 1 {
		t.Fatalf("receiver now has %d queries, want 1", got)
	}
	if m, err := base.FilterDocument(doc); err != nil || len(m) != 1 {
		t.Fatalf("receiver after derive: matches=%v err=%v", m, err)
	}

	// The derived engine shares the warm machine: its state count is at
	// least the receiver's (layer 0 is the same machine object).
	if next.Stats().States < base.Stats().States {
		t.Errorf("derived engine lost warm states: %d < %d",
			next.Stats().States, base.Stats().States)
	}
}

// TestWithQueriesBadFilter: a parse error leaves the receiver untouched.
func TestWithQueriesBadFilter(t *testing.T) {
	base, err := Compile([]string{`//a`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.WithQueries([]string{`//a[`}); err == nil {
		t.Fatal("deriving with a malformed filter succeeded")
	}
	if base.NumQueries() != 1 {
		t.Error("failed derive mutated the receiver")
	}
}

// TestWithoutQueryMasks: the derived engine stops reporting the removed
// filter; the receiver keeps it.
func TestWithoutQueryMasks(t *testing.T) {
	base, err := Compile([]string{`//m[a = 1]`, `//m[b = 2]`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<m><a>1</a><b>2</b></m>`)
	next, err := base.WithoutQuery(0)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := next.FilterDocument(doc); err != nil || len(m) != 1 || m[0] != 1 {
		t.Fatalf("derived matches = %v err=%v, want [1]", m, err)
	}
	if m, err := base.FilterDocument(doc); err != nil || len(m) != 2 {
		t.Fatalf("receiver matches = %v err=%v, want both", m, err)
	}
	if got, masked := fmt.Sprint(next.IDs()), fmt.Sprint(next.MaskedIDs()); got != "[1]" || masked != "[0]" {
		t.Errorf("derived ids %s, masked %s; want [1], [0]", got, masked)
	}
	if _, err := next.WithoutQuery(99); err == nil {
		t.Error("removing an out-of-range filter succeeded")
	}
	// Masking again, or masking a filter Consolidated dropped, changes
	// nothing.
	again, err := next.WithoutQuery(0)
	if err != nil || again.NumMasked() != 1 {
		t.Fatalf("masking a masked filter: %d masked, err %v", again.NumMasked(), err)
	}
	compacted, _, err := next.Consolidated()
	if err != nil {
		t.Fatal(err)
	}
	if again, err = compacted.WithoutQuery(0); err != nil || again.NumMasked() != 0 || fmt.Sprint(again.IDs()) != "[1]" {
		t.Fatalf("masking a dropped filter: ids %v, %d masked, err %v", again.IDs(), again.NumMasked(), err)
	}
}

// TestDerivedEnginesShareStreamTotals: the byte count and latency histogram
// follow the workload through every derivation, whichever generation
// filtered the document — a document the receiver filters after a
// Consolidated() was taken from it (the broker's compaction window) is in
// the consolidated engine's totals, and a separate Compile starts its own.
func TestDerivedEnginesShareStreamTotals(t *testing.T) {
	base, err := Compile([]string{`//m[a = 1]`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`<m q="1"><a>1</a></m>`) // @q is skipped: no filter names it
	added, err := base.WithQueries([]string{`//m[b = 2]`})
	if err != nil {
		t.Fatal(err)
	}
	masked, err := added.WithoutQuery(0)
	if err != nil {
		t.Fatal(err)
	}
	compacted, _, err := masked.Consolidated()
	if err != nil {
		t.Fatal(err)
	}
	apart, err := Compile([]string{base.Query(0)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lineage := []*Engine{base, added, masked, compacted}
	for i, e := range lineage {
		if _, err := e.FilterDocument(doc); err != nil {
			t.Fatal(err)
		}
		for j, o := range lineage {
			st := o.Stats()
			if st.Bytes != int64((i+1)*len(doc)) || st.FilterLatency.Count != uint64(i+1) || st.SkippedElements != int64(i+1) {
				t.Fatalf("after generation %d filtered, generation %d reads %d bytes, %d documents timed, %d skipped; want %d, %d, %d",
					i, j, st.Bytes, st.FilterLatency.Count, st.SkippedElements, (i+1)*len(doc), i+1, i+1)
			}
		}
	}
	if st := apart.Stats(); st.Bytes != 0 || st.FilterLatency.Count != 0 || st.SkippedElements != 0 {
		t.Errorf("an engine compiled apart started with the lineage's totals: %d bytes, %d documents timed", st.Bytes, st.FilterLatency.Count)
	}
}

// TestWorkloadSnapshotRoundTrip: a multi-layer workload with a removed
// filter round-trips through the self-describing snapshot, restoring
// queries, the removed mask, and the warm machine state.
func TestWorkloadSnapshotRoundTrip(t *testing.T) {
	e, err := Compile([]string{`//m[v > 1]`, `//m[v > 2]`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Grow a second layer and mask one filter, then warm the machine.
	e, err = e.WithQueries([]string{`//a//b[c = "x"]`})
	if err != nil {
		t.Fatal(err)
	}
	e, err = e.WithoutQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.FilterDocument([]byte(fmt.Sprintf(`<m><v>%d</v></m>`, i%4))); err != nil {
			t.Fatal(err)
		}
	}
	warm := e.Stats()

	var buf bytes.Buffer
	if err := e.WriteWorkloadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenWorkloadSnapshot(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.NumQueries(), e.NumQueries(); got != want {
		t.Fatalf("restored %d queries, want %d", got, want)
	}
	for id := 0; id < e.NumQueries(); id++ {
		if got, want := restored.Query(id), e.Query(id); got != want {
			t.Errorf("query %d: got %q, want %q", id, got, want)
		}
	}
	if got := fmt.Sprint(restored.MaskedIDs()); got != "[1]" {
		t.Errorf("restored masked ids = %s, want only filter 1 masked", got)
	}
	if got := restored.Stats().States; got != warm.States {
		t.Errorf("restored %d states, want %d", got, warm.States)
	}
	// Filtering on the restored engine honours the mask: only //m[v > 1]
	// fires — filter 1 matches but is removed, filter 2 doesn't match.
	if m, err := restored.FilterDocument([]byte(`<m><v>3</v></m>`)); err != nil || len(m) != 1 || m[0] != 0 {
		t.Fatalf("restored matches = %v err=%v, want [0]", m, err)
	}
}

// TestWorkloadSnapshotRejectsGarbage: bad magic and truncation fail cleanly.
func TestWorkloadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := OpenWorkloadSnapshot(bytes.NewReader([]byte("not a snapshot")), Config{}); err == nil {
		t.Error("garbage snapshot opened")
	}
	e, err := Compile([]string{`//a`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteWorkloadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := OpenWorkloadSnapshot(bytes.NewReader(trunc), Config{}); err == nil {
		t.Error("truncated snapshot opened")
	}
}

// TestCOWRandomizedDifferential walks a seeded random sequence of
// WithQueries / WithoutQuery / Consolidated derivations and, after every
// step, checks the derived engine's match sets on generated documents
// against a fresh Compile of the live filter set and against the DOM
// oracle. It covers what the fixed cases above cannot: long derivation
// chains, removals spread over many layers, and ids carried across repeated
// consolidations. It also holds the engine to its invariants after every
// step: depth stays within the tier rule's logarithmic bound, NumQueries
// never decreases, Consolidated keeps every live id (its mapping is the
// identity on them), and no surviving filter's id, text or mask bit moves.
//
// All 16 combinations of the four machine flags walk the chain, and every
// step has a concurrent arm: before the new generation has seen a document,
// two to four goroutines filter the step's documents at once, on it and on
// the generation it was derived from, which shares its layers — cold layers
// filling under one document while another reads, and two generations
// overlapping as a broker's publishes do across a swap.
func TestCOWRandomizedDifferential(t *testing.T) {
	ds := datagen.ProteinLike()
	pool := workload.Generate(ds, workload.Params{
		Seed: 18, NumQueries: 300, MeanPreds: 3, NestedPredProb: 0.3,
		WildcardProb: 0.1, DescendantProb: 0.2, OrProb: 0.2, NotProb: 0.1,
	})
	gen := datagen.NewGenerator(ds, 1800)
	docs := make([][]byte, 5)
	for i := range docs {
		docs[i] = gen.GenerateDocument()
	}
	steps := 300
	if testing.Short() {
		steps = 100 // the race run: ~25 ms a step there
	}
	for flags := 0; flags < 16; flags++ {
		cfg := Config{TopDownPruning: flags&1 != 0, EarlyNotification: flags&4 != 0, DisablePrecompute: flags&8 != 0}
		if flags&2 != 0 {
			cfg.OrderOptimization, cfg.DTD = true, &DTD{d: ds.DTD}
		}
		name := fmt.Sprintf("topdown=%v", cfg.TopDownPruning)
		steps := steps
		if flags > 1 {
			// The two plain walks keep their names and their length; the
			// other fourteen go a third as far (deep enough for the
			// vacuity check below), which keeps the package's tests from
			// starving the timing-sensitive ones that run beside them.
			name += fmt.Sprintf(",order=%v,early=%v,precompute=%v", cfg.OrderOptimization, cfg.EarlyNotification, !cfg.DisablePrecompute)
			steps = 100
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(18))
			e, err := Compile(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// What the generation a step derives from must answer: the
			// step before's expectations.
			var prevWants []string
			// byID[id] is the pool filter behind filter id, -1 once removed;
			// live lists the ids still >= 0.
			var byID, live []int
			matched, deepest, merges := 0, 0, 0
			for step := 0; step < steps; step++ {
				op := "add"
				prev := e
				switch x := r.Intn(100); {
				case x < 40 && len(live) > 0:
					op = "remove"
					id := live[r.Intn(len(live))]
					if e, err = e.WithoutQuery(id); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					byID[id] = -1
				case x < 55:
					op = "consolidate"
					var mapping []int
					if e, mapping, err = e.Consolidated(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if len(mapping) != len(byID) || e.NumMasked() != 0 || e.NumLayers() != 1 {
						t.Fatalf("step %d: mapping over %d ids, %d masked, %d layers; want %d, 0, 1",
							step, len(mapping), e.NumMasked(), e.NumLayers(), len(byID))
					}
					for id, to := range mapping {
						want := -1
						if byID[id] >= 0 {
							want = id
						}
						if to != want {
							t.Fatalf("step %d: id %d mapped to %d, want %d", step, id, to, want)
						}
					}
				default:
					var qs []string
					for n := 1 + r.Intn(2); n > 0; n-- {
						p := r.Intn(len(pool))
						qs = append(qs, pool[p].String())
						byID = append(byID, p)
					}
					before := e.NumLayers()
					if e, err = e.WithQueries(qs); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if e.NumLayers() <= before {
						merges++
					}
				}
				if n := len(e.filters); n > 0 {
					bound := int(math.Ceil(math.Log(float64(n))/math.Log(tierFanout))) + 2
					if e.NumLayers() > bound {
						t.Fatalf("step %d (%s): %d layers over %d filters, bound %d", step, op, e.NumLayers(), n, bound)
					}
				}
				if e.NumQueries() != len(byID) || e.NumQueries() < prev.NumQueries() {
					t.Fatalf("step %d (%s): NumQueries %d after %d, want %d", step, op, e.NumQueries(), prev.NumQueries(), len(byID))
				}
				// EndDocument concatenates the layers' results without
				// sorting: that needs offsets that never decrease (an
				// empty base layer shares its offset with the next).
				for li := 1; li < len(e.layerOff); li++ {
					if e.layerOff[li] < e.layerOff[li-1] {
						t.Fatalf("step %d (%s): layer offsets %v decrease", step, op, e.layerOff)
					}
				}
				// Every id keeps its filter: the engine reports exactly the
				// ids still live, each with its text. Pool texts repeat, so
				// the text check alone would miss a swap of equal filters;
				// the match-set comparison below catches that.
				live = live[:0]
				for id, p := range byID {
					if p >= 0 {
						live = append(live, id)
						if e.Query(id) != pool[p].String() {
							t.Fatalf("step %d (%s): filter %d moved: text %q", step, op, id, e.Query(id))
						}
					}
				}
				if got := e.IDs(); fmt.Sprint(got) != fmt.Sprint(live) {
					t.Fatalf("step %d (%s): ids %v, want %v", step, op, got, live)
				}
				if op == "consolidate" && fmt.Sprint(prev.IDs()) != fmt.Sprint(live) {
					t.Fatalf("step %d: Consolidated changed the ids %v to %v", step, prev.IDs(), live)
				}

				var texts []string
				var filters []*xpath.Filter
				for _, id := range live {
					texts = append(texts, pool[byID[id]].String())
					filters = append(filters, pool[byID[id]])
				}
				if e.NumLayers() > deepest {
					deepest = e.NumLayers()
				}
				fresh, err := Compile(texts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				oracle := naive.NewEngine(filters)
				wants := make([]string, len(docs))
				for di, doc := range docs {
					fm, err := fresh.FilterDocument(doc)
					if err != nil {
						t.Fatal(err)
					}
					om, err := oracle.FilterDocument(doc)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(fm) != fmt.Sprint(om) {
						t.Fatalf("step %d (%s) doc %d: fresh %v, oracle %v", step, op, di, fm, om)
					}
					// fresh and oracle number the live filters densely.
					want := make([]int, len(fm))
					for i, m := range fm {
						want[i] = live[m]
					}
					wants[di] = fmt.Sprint(want)
				}

				var wg sync.WaitGroup
				for g := 0; g < 2+step%3; g++ {
					on, onWant := e, wants
					if g%2 == 1 && prevWants != nil {
						on, onWant = prev, prevWants
					}
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := range docs {
							di := (i + g) % len(docs)
							got, err := on.FilterDocument(docs[di])
							if err != nil || fmt.Sprint(got) != onWant[di] {
								t.Errorf("step %d (%s) goroutine %d, doc %d on the %d-layer generation (current: %v): %v, err %v; want %s",
									step, op, g, di, on.NumLayers(), on == e, got, err, onWant[di])
							}
						}
					}(g)
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}
				prevWants = wants
				for di, doc := range docs {
					got, err := e.FilterDocument(doc)
					if err != nil {
						t.Fatalf("step %d (%s) doc %d: %v", step, op, di, err)
					}
					matched += len(got)
					if !sort.IntsAreSorted(got) || fmt.Sprint(got) != wants[di] {
						t.Fatalf("step %d (%s, %d layers, %d live of %d) doc %d:\n derived %v\n want    %s",
							step, op, e.NumLayers(), len(live), len(byID), di, got, wants[di])
					}
				}
			}
			if matched == 0 || deepest < 3 || merges == 0 {
				t.Fatalf("vacuous walk: %d matches compared, deepest chain %d layers, %d tier merges", matched, deepest, merges)
			}
		})
	}
}

// layerSizes is the engine's layer partition as filter counts.
func layerSizes(e *Engine) []int {
	sizes := make([]int, len(e.layers))
	for li := range sizes {
		lo, hi := e.layerSlots(li)
		sizes[li] = hi - lo
	}
	return sizes
}

// TestTieredWorkloadSnapshotRoundTrip: an engine grown one filter at a time
// (so its tail is whatever partition the tier rule left) with masked filters
// in several layers round-trips through the workload snapshot with the same
// partition, state count and match sets. OpenWorkloadSnapshot must rebuild
// the recorded partition, not re-tier it: the machine state is per layer.
func TestTieredWorkloadSnapshotRoundTrip(t *testing.T) {
	ds := datagen.ProteinLike()
	pool := workload.Generate(ds, workload.Params{Seed: 19, NumQueries: 48, MeanPreds: 2, DescendantProb: 0.2})
	gen := datagen.NewGenerator(ds, 1900)
	docs := make([][]byte, 8)
	for i := range docs {
		docs[i] = gen.GenerateDocument()
	}
	e, err := Compile([]string{pool[0].String(), pool[1].String(), pool[2].String()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < len(pool); i++ {
		if e, err = e.WithQueries([]string{pool[i].String()}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if e, err = e.WithoutQuery(i - 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.NumLayers() < 3 {
		t.Fatalf("tiered engine has %d layers, want a multi-layer tail", e.NumLayers())
	}
	want := make([]string, len(docs))
	for i, doc := range docs {
		m, err := e.FilterDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(m)
	}
	var buf bytes.Buffer
	if err := e.WriteWorkloadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenWorkloadSnapshot(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(layerSizes(restored)), fmt.Sprint(layerSizes(e)); got != want {
		t.Fatalf("restored partition %s, want %s", got, want)
	}
	if fmt.Sprint(restored.MaskedIDs()) != fmt.Sprint(e.MaskedIDs()) || fmt.Sprint(restored.IDs()) != fmt.Sprint(e.IDs()) {
		t.Fatal("restored ids or mask differ")
	}
	if got, want := restored.Stats().States, e.Stats().States; got != want {
		t.Errorf("restored %d states, want %d", got, want)
	}
	for i, doc := range docs {
		m, err := restored.FilterDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(m) != want[i] {
			t.Errorf("doc %d: restored matches %v, want %s", i, m, want[i])
		}
	}
	if got, want := restored.Stats().States, e.Stats().States; got != want {
		t.Errorf("restored engine built states on seen documents: %d, want %d", got, want)
	}
}

// TestOpenParentThreeLayerSnapshot: a snapshot written before the tier rule
// existed — layers of 2, 1 and 1 filters, which WithQueries would now merge —
// still opens with its recorded partition and warm state. The file was
// written by the PR 18 tree: Compile of two filters, two single-filter
// WithQueries, filter 1 masked, ten documents filtered.
func TestOpenParentThreeLayerSnapshot(t *testing.T) {
	f, err := os.Open("testdata/pr18_three_layers.xpw")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := OpenWorkloadSnapshot(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(layerSizes(e)); got != "[2 1 1]" {
		t.Fatalf("partition %s, want [2 1 1]", got)
	}
	if got, masked := fmt.Sprint(e.IDs()), fmt.Sprint(e.MaskedIDs()); got != "[0 2 3]" || masked != "[1]" || e.NumQueries() != 4 {
		t.Fatalf("ids %s, masked %s, %d ids handed out; want [0 2 3], [1], 4", got, masked, e.NumQueries())
	}
	if got := e.Stats().States; got != 13 {
		t.Errorf("restored %d states, want the 13 the file was written with", got)
	}
	if m, err := e.FilterDocument([]byte(`<m><v>3</v><w>7</w></m>`)); err != nil || fmt.Sprint(m) != "[0 3]" {
		t.Fatalf("matches = %v err=%v, want [0 3]", m, err)
	}
}
