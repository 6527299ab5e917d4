// Package afa implements the Alternating Finite Automata of Sec. 3.2 (step 1
// of the XPush compilation): each XPath filter becomes an AFA whose states
// are labeled AND, OR, or NOT, with ε-transitions for boolean structure and
// label transitions for navigation. When stripped of the AND/OR/NOT labels
// the AFAs are precisely the NFAs used by earlier XML filtering systems.
//
// The package also provides the two primitives the XPush machine needs at
// runtime: δ⁻¹ (backward transition over a label) and eval (the logical
// closure adding implied AND/OR/NOT states, stratified to handle nested
// not(...) bottom-up, as the paper requires for cases like not(not(Q))).
package afa

import (
	"fmt"
	"slices"

	"repro/internal/xmlval"
)

// StateKind labels an AFA state, per Sec. 3.2.
type StateKind uint8

const (
	// OR states match a node if some transition matches (or the terminal
	// predicate holds on a data value).
	OR StateKind = iota
	// AND states have only ε transitions and match if all successors do.
	AND
	// NOT states have a single ε transition and match if it does not.
	NOT
)

func (k StateKind) String() string {
	switch k {
	case OR:
		return "OR"
	case AND:
		return "AND"
	case NOT:
		return "NOT"
	default:
		return "kind(?)"
	}
}

// TerminalKind classifies terminal states.
type TerminalKind uint8

const (
	// NonTerminal states are inner states.
	NonTerminal TerminalKind = iota
	// LeafTerminal states carry an atomic predicate π_s(v) on data
	// values; they are activated by tvalue.
	LeafTerminal
	// TrueTerminal states match any element or attribute node: the
	// implicit true predicate of purely structural (sub)filters. They are
	// injected into every eval at endElement time rather than stored.
	TrueTerminal
)

// edge is a labeled transition.
type edge struct {
	sym int32
	to  int32
}

// state is one AFA state.
type state struct {
	kind     StateKind
	terminal TerminalKind
	op       xmlval.Op
	konst    xmlval.Const
	query    int32
	notRank  int16

	eps   []int32 // ε successors (AND/OR/NOT structure)
	edges []edge  // label transitions (navigation)
	back  []edge  // incoming label transitions (sym, source)

	epsParents []int32 // states with an ε edge to this one

	// prec lists the AND-siblings that must precede this state under the
	// order optimization (Sec. 5); nil when the optimization is off or
	// no order is known.
	prec []int32
}

// QueryInfo describes one compiled filter.
type QueryInfo struct {
	// Initial is the filter's initial state; taccept reports the filter
	// when its Initial state is in the final bottom-up state.
	Initial int32
	// Early is the first branching state, used by the early-notification
	// optimization: once Early matches (under top-down pruning) the
	// filter is known to match. It is -1 when the filter cannot use
	// early notification soundly (its first branching state can fire
	// through a not(...) branch without navigation gating).
	Early int32
	// HasDescendant reports whether the filter uses //.
	HasDescendant bool
	// Source is the filter's XPath text.
	Source string
}

// AFA is the union of the per-filter automata over a shared symbol table.
type AFA struct {
	Syms    *Symbols
	Queries []QueryInfo

	states []state

	// trueTerminals is the sorted list of TrueTerminal states, injected
	// into eval at every endElement.
	trueTerminals []int32

	maxNotRank  int16
	notsByRank  [][]int32
	leafCount   int
	initials    []int32 // sorted initial states (the top-down start set)
	anyDescends bool
}

// NumStates returns the total number of AFA states across all filters.
func (a *AFA) NumStates() int { return len(a.states) }

// NumLeafTerminals returns the number of atomic value predicates.
func (a *AFA) NumLeafTerminals() int { return a.leafCount }

// Kind returns a state's kind.
func (a *AFA) Kind(s int32) StateKind { return a.states[s].kind }

// Terminal returns a state's terminal classification.
func (a *AFA) Terminal(s int32) TerminalKind { return a.states[s].terminal }

// Predicate returns the atomic predicate of a LeafTerminal.
func (a *AFA) Predicate(s int32) (xmlval.Op, xmlval.Const) {
	return a.states[s].op, a.states[s].konst
}

// QueryOf returns the filter index owning a state.
func (a *AFA) QueryOf(s int32) int32 { return a.states[s].query }

// TrueTerminals returns the sorted TrueTerminal states. Callers must not
// modify the slice.
func (a *AFA) TrueTerminals() []int32 { return a.trueTerminals }

// Initials returns the sorted initial states of all filters (the top-down
// start state q0^t = {s1, ..., sn} of the top-down pruning optimization).
func (a *AFA) Initials() []int32 { return a.initials }

// HasDescendant reports whether any filter uses //.
func (a *AFA) HasDescendant() bool { return a.anyDescends }

// EachLeafTerminal calls fn for every LeafTerminal with its predicate; the
// XPush machine uses this to build the atomic predicate index.
func (a *AFA) EachLeafTerminal(fn func(s int32, op xmlval.Op, c xmlval.Const)) {
	for i := range a.states {
		if a.states[i].terminal == LeafTerminal {
			fn(int32(i), a.states[i].op, a.states[i].konst)
		}
	}
}

// Eps returns a state's ε successors. Callers must not modify the slice.
func (a *AFA) Eps(s int32) []int32 { return a.states[s].eps }

// Prec returns the must-precede siblings of a state under the order
// optimization (nil when unordered).
func (a *AFA) Prec(s int32) []int32 { return a.states[s].prec }

// Delta appends δ(s, in) — the targets of s's transitions firing on the
// concrete input symbol in — to out.
func (a *AFA) Delta(s int32, in int32, out []int32) []int32 {
	for _, e := range a.states[s].edges {
		if a.Syms.Matches(e.sym, in) {
			out = append(out, e.to)
		}
	}
	return out
}

// FiresOn reports whether some transition of the automaton fires on the
// input symbol in. When none does, δ and δ⁻¹ over in are empty for every
// state set.
func (a *AFA) FiresOn(in int32) bool { return a.FiresOnFrom(0, in) }

// FiresOnFrom is FiresOn over the states from `from` on.
func (a *AFA) FiresOnFrom(from, in int32) bool {
	for i := from; i < int32(len(a.states)); i++ {
		for _, e := range a.states[i].edges {
			if a.Syms.Matches(e.sym, in) {
				return true
			}
		}
	}
	return false
}

// BackSyms returns the labels of the transitions into state s.
func (a *AFA) BackSyms(s int32, out []int32) []int32 {
	for _, e := range a.states[s].back {
		out = append(out, e.sym)
	}
	return out
}

// DeltaInv computes δ⁻¹(q, in) = { s' | δ(s', in) ∩ q ≠ ∅ } for a sorted
// state set q, appending to out. The result is sorted and deduplicated.
// Back-pointers keep this linear in the number of incoming edges, as the
// paper's implementation notes prescribe (Sec. 4).
func (a *AFA) DeltaInv(q []int32, in int32, out []int32) []int32 {
	start := len(out)
	for _, s := range q {
		for _, e := range a.states[s].back {
			if a.Syms.Matches(e.sym, in) {
				out = append(out, e.to)
			}
		}
	}
	tail := out[start:]
	slices.Sort(tail)
	return out[:start+len(dedup(tail))]
}

func dedup(ids []int32) []int32 {
	if len(ids) < 2 {
		return ids
	}
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}

// Evaluator computes eval(q) — the closure of a state set under logical
// implication: an AND state joins when all its ε successors are present, an
// OR state when some successor is present, and a NOT state (processed in
// rank order, innermost first) when its successor is absent. One Evaluator
// serves one goroutine; it reuses epoch-marked scratch space so eval does
// not allocate per call in the steady state.
type Evaluator struct {
	a     *AFA
	mark  []uint32
	epoch uint32
	out   []int32
}

// NewEvaluator returns an Evaluator for the AFA. It follows the automaton
// through Extend: the marks grow with the states on the next call.
func (a *AFA) NewEvaluator() *Evaluator {
	return &Evaluator{a: a, mark: make([]uint32, len(a.states))}
}

// next starts a new evaluation: a fresh epoch, marks for every state.
func (ev *Evaluator) next() {
	if n := len(ev.a.states); len(ev.mark) < n {
		ev.mark = append(ev.mark, make([]uint32, n-len(ev.mark))...)
	}
	ev.epoch++
	if ev.epoch == 0 { // epoch wrapped: clear marks
		clear(ev.mark)
		ev.epoch = 1
	}
	ev.out = ev.out[:0]
}

func (ev *Evaluator) has(s int32) bool { return ev.mark[s] == ev.epoch }

func (ev *Evaluator) add(s int32) bool {
	if ev.mark[s] == ev.epoch {
		return false
	}
	ev.mark[s] = ev.epoch
	ev.out = append(ev.out, s)
	return true
}

// Eval returns the closure of q ∪ extra, sorted. The returned slice is valid
// until the next Eval call. extra is the (possibly filtered) true-terminal
// injection.
func (ev *Evaluator) Eval(q []int32, extra []int32) []int32 {
	a := ev.a
	ev.next()
	for _, s := range q {
		ev.add(s)
	}
	for _, s := range extra {
		ev.add(s)
	}
	ev.closeAndOr(0)
	// NOT strata, innermost first. After adding the NOTs of one rank the
	// AND/OR closure may cascade before the next rank is decided.
	for r := int16(1); r <= a.maxNotRank; r++ {
		frontier := len(ev.out)
		for _, s := range a.notsByRank[r] {
			succ := a.states[s].eps[0]
			if !ev.has(succ) {
				ev.add(s)
			}
		}
		if len(ev.out) > frontier {
			ev.closeAndOr(frontier)
		}
	}
	slices.Sort(ev.out)
	return ev.out
}

// CloseEps returns the ε-closure close(q) = q ∪ δ(·, ε) applied to fixpoint
// (the close() of the top-down pruning definitions, Sec. 5), sorted. The
// returned slice is valid until the next Eval/CloseEps call.
func (ev *Evaluator) CloseEps(q []int32) []int32 {
	a := ev.a
	ev.next()
	for _, s := range q {
		ev.add(s)
	}
	for i := 0; i < len(ev.out); i++ {
		for _, t := range a.states[ev.out[i]].eps {
			ev.add(t)
		}
	}
	slices.Sort(ev.out)
	return ev.out
}

// closeAndOr propagates AND/OR implications from states at positions >= from
// in the worklist until fixpoint.
func (ev *Evaluator) closeAndOr(from int) {
	a := ev.a
	for i := from; i < len(ev.out); i++ {
		s := ev.out[i]
		for _, p := range a.states[s].epsParents {
			if ev.has(p) {
				continue
			}
			switch a.states[p].kind {
			case OR:
				ev.add(p)
			case AND:
				all := true
				for _, c := range a.states[p].eps {
					if !ev.has(c) {
						all = false
						break
					}
				}
				if all {
					ev.add(p)
				}
			}
			// NOT parents are handled by rank strata.
		}
	}
}

// String renders a state for debugging.
func (a *AFA) String() string {
	return fmt.Sprintf("AFA{%d queries, %d states, %d leaf predicates}",
		len(a.Queries), len(a.states), a.leafCount)
}

// DumpState renders one state for debugging and tests.
func (a *AFA) DumpState(s int32) string {
	st := &a.states[s]
	out := fmt.Sprintf("%d:%s", s, st.kind)
	switch st.terminal {
	case LeafTerminal:
		out += fmt.Sprintf("[%s%s]", st.op, st.konst)
	case TrueTerminal:
		out += "[true]"
	}
	for _, e := range st.edges {
		out += fmt.Sprintf(" --%s-->%d", a.Syms.Name(e.sym), e.to)
	}
	for _, t := range st.eps {
		out += fmt.Sprintf(" ..%d", t)
	}
	return out
}
