package core

import (
	"fmt"

	"repro/internal/afa"
)

// PrecomputeEager materialises the accessible states of the bottom-up XPush
// machine ahead of any input — the eager construction of Sec. 3.2, with its
// no-mixed-content pruning ("we will not compute tbadd if this is
// violated"). After it returns, streams whose labels and values fall inside
// the precomputed alphabet and value partition run entirely on cache hits:
// the "completed" machine of Sec. 7, which the paper measures by running the
// data twice.
//
// The closure seeds the empty state and one value state per interval of the
// atomic predicate index, then alternates tpop over every alphabet symbol
// with tbadd over every (state, addable) pair until fixpoint. The worst
// case is exponential (the reason the machine is normally built lazily), so
// maxStates bounds the exploration; exceeding it returns an error and
// leaves the machine valid (partially warmed).
//
// Only the basic machine supports eager construction: with top-down pruning
// the value and pop transitions are parameterised by top-down states, whose
// reachable set depends on the document structure (exactly the paper's
// observation that TD defeats precomputation).
func (m *Machine) PrecomputeEager(maxStates int) (int, error) {
	defer m.exclusive()()
	if m.opts.TopDown {
		return 0, fmt.Errorf("xpush: eager construction requires the basic (non-top-down) machine")
	}
	if maxStates <= 0 {
		maxStates = 1 << 20
	}

	// Seed the value states, one per interval of the predicate index.
	addable := map[int32]bool{}
	for _, v := range m.index.Representatives() {
		addable[m.valueState(0, v)] = true
	}
	// Concrete input symbols: every interned label plus the two
	// unknown-label sentinels; the wildcards are transition labels, not
	// inputs.
	var inputs []int32
	for sym := int32(0); sym < int32(m.afa.Syms.Len()); sym++ {
		if sym == afa.SymAnyElem || sym == afa.SymAnyAttr {
			continue
		}
		inputs = append(inputs, sym)
	}

	poppedThrough := 0 // how many of bsets have had all pops applied
	addables := make([]int32, 0, len(addable))
	for id := range addable {
		addables = append(addables, id)
	}
	for {
		grew := false
		// tpop closure over new states.
		for ; poppedThrough < len(m.bsets); poppedThrough++ {
			qb := int32(poppedThrough)
			for _, sym := range inputs {
				qaux := m.popState(qb, 0, sym)
				if qaux != 0 && !addable[qaux] {
					addable[qaux] = true
					addables = append(addables, qaux)
				}
			}
			if len(m.bsets) > maxStates {
				m.flushPending()
				return len(m.bsets), fmt.Errorf("xpush: eager construction exceeded %d states", maxStates)
			}
			grew = true
		}
		// tbadd closure: every accumulated state × every addable.
		// Repeated pairs are cheap addTab hits, so the loop simply
		// revisits all pairs each round.
		before := len(m.bsets)
		for qbs := 0; qbs < before; qbs++ {
			for _, qaux := range addables {
				if m.mixedMerge(int32(qbs), qaux) {
					continue
				}
				m.addStates(int32(qbs), qaux)
				if len(m.bsets) > maxStates {
					m.flushPending()
					return len(m.bsets), fmt.Errorf("xpush: eager construction exceeded %d states", maxStates)
				}
			}
		}
		if len(m.bsets) > before {
			grew = true
		}
		if !grew && poppedThrough == len(m.bsets) {
			m.flushPending()
			return len(m.bsets), nil
		}
	}
}

// mixedMerge reports whether merging the two states is excluded by the
// no-mixed-content data model of Sec. 3.2: value-leaf AFA states never
// co-occur with element-matching states, and two value states never merge
// (an element has at most one text run). With this rule the eager closure
// over the running example produces exactly the 22 states of Fig. 3.
func (m *Machine) mixedMerge(qbs, qaux int32) bool {
	aLeaf, aElem := m.leafElem(qbs)
	bLeaf, bElem := m.leafElem(qaux)
	if aLeaf && bLeaf {
		return true
	}
	return (aLeaf || bLeaf) && (aElem || bElem)
}

// leafElem classifies a state's members.
func (m *Machine) leafElem(qb int32) (hasLeaf, hasElem bool) {
	for _, s := range m.bsets[qb] {
		if m.afa.Terminal(s) == afa.LeafTerminal {
			hasLeaf = true
		} else {
			hasElem = true
		}
	}
	return
}
