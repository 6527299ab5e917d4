package core

import (
	"fmt"
	"slices"

	"repro/internal/afa"
	"repro/internal/predindex"
	"repro/internal/xmlval"
	"repro/internal/xpath"
)

// Splice adds filters to the live machine (DESIGN.md "Splicing a filter
// into the live machine") and returns the oid of the first one; the rest
// follow it. It compiles them aside first, so a filter outside the fragment
// fails here and changes nothing, then queues them, and installs the queue
// at once if the write lock is free. Otherwise whoever takes the write lock
// next installs it — a document that missed a table, or the next document
// to start, which waits for nothing it would not wait for anyway — so the
// caller never queues for the write lock behind documents that hold it.
//
// Oids are append-only and handed out here, in queue order: a document
// running when the splice lands (one that upgrades after it) may report the
// new filters too, which its caller, who knows which oids it holds, drops.
// Every document that starts after Splice returns runs with them.
func (m *Machine) Splice(filters []*xpath.Filter) (int32, error) {
	if _, err := afa.Compile(filters); err != nil {
		return 0, err
	}
	m.queueMu.Lock()
	oid := m.reserved.Add(int32(len(filters))) - int32(len(filters))
	m.queue = append(m.queue, filters...)
	m.queued.Store(int32(len(m.queue)))
	m.queueMu.Unlock()
	if m.mu.TryLock() {
		m.install()
		m.mu.Unlock()
	}
	return oid, nil
}

// settle installs the queued filters, taking the write lock if any are
// queued. The caller holds no lock.
func (m *shared) settle() {
	if m.queued.Load() > 0 {
		m.mu.Lock()
		m.install()
		m.mu.Unlock()
	}
}

// install compiles the queued filters into the machine. The caller holds the
// write lock. It appends their AFA states after the existing ones, extends
// the symbols, the early marks and the predicate index, and deletes only the
// table rows the new filters can change: a bottom-up set of old states gains
// a new state only through a value row, a TrueTerminal injected on pop, or a
// NOT that Eval adds because its child is absent. Interned states and every
// other row stay warm, so the documents that follow run on hits wherever the
// new filters do not reach. It writes no cursor's fields, so any cursor
// holding the lock may call it, mid-document too: state ids stay valid.
func (m *shared) install() {
	m.queueMu.Lock()
	filters := m.queue
	m.queue = nil
	m.queued.Store(0)
	m.queueMu.Unlock()
	if len(filters) == 0 {
		return
	}
	a := m.afa
	syms := int32(a.Syms.Len())
	from, err := a.Extend(filters)
	if err != nil {
		// Splice compiled these filters on their own: the automaton they
		// join cannot make one fail.
		panic(fmt.Sprintf("core: a filter that compiled alone failed to splice: %v", err))
	}
	if m.opts.Order != nil {
		a.ApplyOrderFrom(from, m.opts.Order)
	}
	m.isEarly = append(m.isEarly, make([]bool, a.NumStates()-len(m.isEarly))...)
	for _, q := range a.Queries[len(a.Queries)-len(filters):] {
		if q.Early >= 0 {
			m.isEarly[q.Early] = true
		}
	}
	m.needIsect = m.opts.Early && a.HasDescendant()
	m.trueTermAll = a.TrueTerminals()
	for _, sym := range []int32{afa.SymOtherElem, afa.SymOtherAttr} {
		if a.FiresOnFrom(from, sym) {
			m.invisible &^= 1 << sym
		}
	}

	// Value rows: those of the intervals whose satisfied set grew.
	b := predindex.NewBuilder()
	var trueTerms []int32
	var points []xmlval.Value // the new constants, for precomputation
	dropPops := false
	for s := from; s < int32(a.NumStates()); s++ {
		switch a.Terminal(s) {
		case afa.LeafTerminal:
			op, c := a.Predicate(s)
			b.Add(s, op, c)
			switch {
			case op == xmlval.OpExists || op == xmlval.OpContains || op == xmlval.OpStartsWith:
			case c.Kind == xmlval.Number:
				points = append(points, xmlval.FromNumber(c.Num))
			default:
				points = append(points, xmlval.New(c.Str))
			}
		case afa.TrueTerminal:
			trueTerms = append(trueTerms, s)
		}
		// Eval adds a NOT to every set that lacks its child.
		dropPops = dropPops || a.Kind(s) == afa.NOT
	}
	stale := m.index.Extend(b)
	if stale.Everything() {
		m.clearValueRows()
	} else {
		num, str := stale.Points()
		m.deleteValueRows(0, num)
		m.deleteValueRows(1, str)
	}

	// Pop rows: Eval injects the TrueTerminals on every pop, and δ⁻¹ then
	// reaches the sources of the edges into their closure. Only rows keyed
	// on those edges' labels change; a label interned by this splice keys
	// no row yet.
	var popSyms []int32
	if !dropPops && len(trueTerms) > 0 {
		for _, s := range m.ev.Eval(nil, trueTerms) {
			if s >= from {
				popSyms = a.BackSyms(s, popSyms)
			}
		}
		for _, sym := range popSyms {
			dropPops = dropPops || sym == afa.SymAnyElem || sym == afa.SymAnyAttr
		}
		popSyms = slices.DeleteFunc(popSyms, func(sym int32) bool { return sym >= syms })
	}
	switch {
	case dropPops:
		m.popTab = tabE{}
	case len(popSyms) > 0:
		m.popTab.deleteIf(func(k key128) bool { return slices.Contains(popSyms, int32(k.hi)) })
	}

	// q0^t: the basic machine's one top-down state enables every
	// TrueTerminal; under top-down pruning it is the initial set, which the
	// new filters' initial states join, so every row keyed on it (and every
	// push that led back to it) goes. A top-down state of old states holds
	// no new state, and its rows stay.
	if !m.opts.TopDown {
		m.ttOf[0] = m.trueTermAll
	} else {
		m.tsets[0] = a.Initials()
		m.ttOf[0] = intersectSorted(m.trueTermAll, m.tsets[0], nil)
		m.pushTab.deleteIf(func(k uint64, to int32) bool { return k>>32 == 0 || to == 0 })
		m.popTab.deleteIf(func(k key128) bool { return uint32(k.lo) == 0 })
		m.valueTab.deleteIf(func(k key128) bool { return k.lo == 0 })
		m.sectTab.deleteIf(func(k uint64, _ int32) bool { return uint32(k) == 0 })
	}

	if m.opts.PrecomputeValues && !m.opts.TopDown {
		// A cursor of its own, already holding the write lock.
		p := &Machine{shared: m, cursor: cursor{excl: true}}
		for _, v := range points {
			p.valueState(0, v)
		}
		p.flushPending()
	}
}

// putValueRow stores a value row and lists it under its point intervals.
func (m *shared) putValueRow(k key128, e entry) {
	m.valueTab.put(k, e)
	for d, iv := range [2]int32{int32(k.hi>>32) - 1, int32(uint32(k.hi))} {
		if iv%2 == 1 { // a point: -1 (no number) and gaps are even
			if m.pointRows[d] == nil {
				m.pointRows[d] = map[int32][]key128{}
			}
			m.pointRows[d][iv] = append(m.pointRows[d][iv], k)
		}
	}
}

// deleteValueRows deletes the value rows under the given point intervals of
// domain d.
func (m *shared) deleteValueRows(d int, points []int) {
	for _, iv := range points {
		for _, k := range m.pointRows[d][int32(iv)] {
			m.valueTab.del(k)
		}
		delete(m.pointRows[d], int32(iv))
	}
}

// clearValueRows deletes every value row.
func (m *shared) clearValueRows() {
	m.valueTab = tabE{}
	m.pointRows = [2]map[int32][]key128{}
}
