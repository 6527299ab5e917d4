package core

import (
	"fmt"
	"io"
	"sort"
)

// DumpTables renders the machine's materialised states and transition
// tables in the style of Fig. 3 of the paper: the bottom-up state family,
// the value index entries, Tpop, Tbadd and Taccept. Intended for
// debugging, teaching, and the xpushdump tool; combine with PrecomputeEager
// to see the complete machine of a small workload.
func (m *Machine) DumpTables(w io.Writer) error {
	defer m.exclusive()() // the Tvalue and Taccept sections fill what they print
	fmt.Fprintf(w, "bottom-up states (%d):\n", len(m.bsets))
	for i, set := range m.bsets {
		fmt.Fprintf(w, "  q%-4d = %v\n", i, set)
	}
	if m.opts.TopDown {
		fmt.Fprintf(w, "top-down states (%d):\n", len(m.tsets))
		for i, set := range m.tsets {
			fmt.Fprintf(w, "  t%-4d = %v\n", i, set)
		}
	}

	fmt.Fprintln(w, "Tvalue (representative value -> state):")
	for _, v := range m.index.Representatives() {
		id := m.valueState(m.qtForDump(), v)
		fmt.Fprintf(w, "  %-16q -> q%d\n", v.Text, id)
	}

	fmt.Fprintln(w, "Tpop[q][label] -> q:")
	type popRow struct {
		qb, qt, sym int32
		e           entry
	}
	popRows := make([]popRow, 0, m.popTab.len())
	m.popTab.each(func(k key128, e entry) {
		popRows = append(popRows, popRow{
			qb: int32(k.lo >> 32), qt: int32(uint32(k.lo)), sym: int32(uint32(k.hi)), e: e,
		})
	})
	sort.Slice(popRows, func(i, j int) bool {
		a, b := popRows[i], popRows[j]
		if a.qb != b.qb {
			return a.qb < b.qb
		}
		return a.sym < b.sym
	})
	for _, r := range popRows {
		fmt.Fprintf(w, "  Tpop[q%d][%s] = q%d", r.qb, m.afa.Syms.Name(r.sym), r.e.state)
		if len(r.e.early) > 0 {
			fmt.Fprintf(w, "  (early: %v)", r.e.early)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "Tbadd[qs][q] -> q:")
	type addRow struct {
		qbs, qaux, val int32
	}
	addRows := make([]addRow, 0, m.addTab.len())
	m.addTab.each(func(k uint64, v int32) {
		addRows = append(addRows, addRow{qbs: int32(k >> 32), qaux: int32(uint32(k)), val: v})
	})
	sort.Slice(addRows, func(i, j int) bool {
		a, b := addRows[i], addRows[j]
		if a.qbs != b.qbs {
			return a.qbs < b.qbs
		}
		return a.qaux < b.qaux
	})
	for _, r := range addRows {
		fmt.Fprintf(w, "  Tbadd[q%d][q%d] = q%d\n", r.qbs, r.qaux, r.val)
	}

	fmt.Fprintln(w, "Taccept (non-empty):")
	for i := range m.bsets {
		if acc := m.acceptOf(int32(i)); len(acc) > 0 {
			fmt.Fprintf(w, "  Taccept[q%d] = %v\n", i, acc)
		}
	}
	m.flushPending()
	return nil
}

// qtForDump returns the top-down state to key dump lookups by (the basic
// machine always uses 0).
func (m *Machine) qtForDump() int32 { return 0 }
