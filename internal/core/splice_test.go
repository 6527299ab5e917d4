package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xpath"
)

// TestSpliceMatchesCompile grows a warm machine one filter at a time, in a
// seeded random order, with the matrix's filters (every kind of step,
// predicate and operator of the fragment) and after each splice holds its
// match sets on every matrix document to those of a machine compiled from
// the same filters in the same order, under every option combination. The
// spliced machine has filtered every document before each splice, so a row
// the splice should have dropped and kept answers wrong here.
func TestSpliceMatchesCompile(t *testing.T) {
	var queries []string
	for _, tc := range matrixCases {
		if !slices.Contains(queries, tc.query) {
			queries = append(queries, tc.query)
		}
	}
	for name, opts := range allOptionCombos() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(54))
			order := slices.Clone(queries)
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			m := New(compileWorkload(t, order[:3]...), opts)
			for n := 3; n <= len(order); n++ {
				if n > 3 {
					oid, err := m.Splice([]*xpath.Filter{xpath.MustParse(order[n-1])})
					if err != nil || oid != int32(n-1) {
						t.Fatalf("splice %d (%s): oid %d, err %v", n-1, order[n-1], oid, err)
					}
				}
				fresh := New(compileWorkload(t, order[:n]...), opts)
				for _, tc := range matrixCases {
					got, err := m.Fork().FilterDocument([]byte(tc.doc))
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.FilterDocument([]byte(tc.doc))
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("after splicing %q (%d filters), %s: spliced %v, compiled %v", order[n-1], n, tc.doc, got, want)
					}
				}
			}
			if fp, want := m.Fingerprint(), New(compileWorkload(t, order...), opts).Fingerprint(); fp != want {
				t.Error("spliced machine's fingerprint differs from the compiled one's")
			}
		})
	}
}

// TestSpliceErrorLeavesMachine: a filter outside the fragment fails the
// splice and changes nothing, not even the symbol numbering.
func TestSpliceErrorLeavesMachine(t *testing.T) {
	m := New(compileWorkload(t, "/a[b=1]"), Options{})
	syms, states := m.afa.Syms.Len(), m.afa.NumStates()
	if _, err := m.Splice([]*xpath.Filter{xpath.MustParse("/c[d=2]"), xpath.MustParse("/x//.")}); err == nil {
		t.Fatal("splicing //. succeeded")
	}
	if m.afa.Syms.Len() != syms || m.afa.NumStates() != states || m.NumQueries() != 1 {
		t.Fatalf("failed splice left %d symbols, %d states, %d filters; want %d, %d, 1", m.afa.Syms.Len(), m.afa.NumStates(), m.NumQueries(), syms, states)
	}
	if _, ok := m.afa.Syms.Lookup("c"); ok {
		t.Error("failed splice left its label interned")
	}
}
