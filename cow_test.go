package xpushstream

import (
	"bytes"
	"fmt"
	"math/rand"
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
	if got := base.Queries(); len(got) != 1 {
		t.Fatalf("receiver now has %d queries, want 1", len(got))
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
	if len(base.Queries()) != 1 {
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
	if rm := next.Removed(); !rm[0] || rm[1] {
		t.Errorf("derived removed mask = %v, want [true false]", rm)
	}
	if _, err := next.WithoutQuery(99); err == nil {
		t.Error("removing an out-of-range filter succeeded")
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
	if got, want := restored.Queries(), e.Queries(); len(got) != len(want) {
		t.Fatalf("restored %d queries, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("query %d: got %q, want %q", i, got[i], want[i])
			}
		}
	}
	if rm := restored.Removed(); !rm[1] || rm[0] || rm[2] {
		t.Errorf("restored removed mask = %v, want only filter 1 masked", rm)
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
// chains, removals spread over many layers, and index remapping across
// repeated consolidations.
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
	for _, topDown := range []bool{false, true} {
		t.Run(fmt.Sprintf("topdown=%v", topDown), func(t *testing.T) {
			cfg := Config{TopDownPruning: topDown}
			r := rand.New(rand.NewSource(18))
			e, err := Compile(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// slots[i] is the pool filter behind engine index i, -1 once
			// removed; live lists the indexes still >= 0.
			var slots, live []int
			matched, deepest := 0, 0
			for step := 0; step < steps; step++ {
				op := "add"
				switch x := r.Intn(100); {
				case x < 40 && len(live) > 0:
					op = "remove"
					i := live[r.Intn(len(live))]
					if e, err = e.WithoutQuery(i); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					slots[i] = -1
				case x < 55:
					op = "consolidate"
					var mapping []int
					if e, mapping, err = e.Consolidated(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if len(mapping) != len(slots) || e.NumQueries() != len(live) || e.NumLayers() != 1 {
						t.Fatalf("step %d: mapping over %d slots, %d queries, %d layers; want %d, %d, 1",
							step, len(mapping), e.NumQueries(), e.NumLayers(), len(slots), len(live))
					}
					next := make([]int, len(live))
					for old, idx := range mapping {
						if slots[old] < 0 {
							if idx != -1 {
								t.Fatalf("step %d: removed slot %d mapped to %d", step, old, idx)
							}
							continue
						}
						next[idx] = slots[old]
					}
					slots = next
				default:
					var qs []string
					for n := 1 + r.Intn(2); n > 0; n-- {
						p := r.Intn(len(pool))
						qs = append(qs, pool[p].String())
						slots = append(slots, p)
					}
					if e, err = e.WithQueries(qs); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}

				live = live[:0]
				var texts []string
				var filters []*xpath.Filter
				for i, p := range slots {
					if p >= 0 {
						live = append(live, i)
						texts = append(texts, pool[p].String())
						filters = append(filters, pool[p])
					}
				}
				if e.NumLayers() > deepest {
					deepest = e.NumLayers()
				}
				fresh, err := Compile(texts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				oracle := naive.NewEngine(filters)
				for di, doc := range docs {
					got, err := e.FilterDocument(doc)
					if err != nil {
						t.Fatalf("step %d (%s) doc %d: %v", step, op, di, err)
					}
					matched += len(got)
					fm, err := fresh.FilterDocument(doc)
					if err != nil {
						t.Fatal(err)
					}
					om, err := oracle.FilterDocument(doc)
					if err != nil {
						t.Fatal(err)
					}
					// fresh and oracle number the live filters densely.
					want := make([]int, len(fm))
					for i, m := range fm {
						want[i] = live[m]
					}
					if fmt.Sprint(fm) != fmt.Sprint(om) || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d (%s, %d layers, %d live of %d) doc %d:\n derived %v\n fresh   %v = %v\n oracle  %v",
							step, op, e.NumLayers(), len(live), len(slots), di, got, fm, want, om)
					}
				}
			}
			if matched == 0 || deepest < 4 {
				t.Fatalf("vacuous walk: %d matches compared, deepest chain %d layers", matched, deepest)
			}
		})
	}
}
