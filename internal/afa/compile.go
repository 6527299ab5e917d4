package afa

import (
	"fmt"
	"slices"

	"repro/internal/xmlval"
	"repro/internal/xpath"
)

// CompileError reports a filter outside the supported fragment.
type CompileError struct {
	Query  int
	Source string
	Msg    string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("afa: query %d (%s): %s", e.Query, e.Source, e.Msg)
}

// Compile translates a workload of parsed XPath filters into the union AFA,
// one automaton per filter over a shared symbol table (Sec. 3.2, step 1).
func Compile(filters []*xpath.Filter) (*AFA, error) {
	a := &AFA{Syms: NewSymbols()}
	if _, err := a.Extend(filters); err != nil {
		return nil, err
	}
	return a, nil
}

// Extend compiles filters into the automaton after the ones it holds: their
// states are numbered from the returned first new state on, their filter
// indexes from len(a.Queries) on, and their labels are interned after the
// existing ones, so an automaton extended filter by filter is the one Compile
// builds from the concatenated workload. No existing state changes: every
// edge of a new state leads to a new state. On error the automaton is left
// as it was.
func (a *AFA) Extend(filters []*xpath.Filter) (from int32, err error) {
	from = int32(len(a.states))
	nq, nsyms, leaves := len(a.Queries), a.Syms.Len(), a.leafCount
	b := &builder{a: a, base: int32(nq)}
	for i, f := range filters {
		init, err := b.compileFilter(f, int32(nq+i))
		if err != nil {
			clear(a.states[from:])
			a.states = a.states[:from]
			a.Queries = a.Queries[:nq]
			a.Syms.truncate(nsyms)
			a.leafCount = leaves
			return 0, err
		}
		a.Queries = append(a.Queries, QueryInfo{
			Initial:       init,
			HasDescendant: f.HasDescendant(),
			Source:        f.Source,
		})
	}
	b.finalize(from, nq)
	return from, nil
}

// MustCompile panics on error; for statically known workloads.
func MustCompile(filters ...*xpath.Filter) *AFA {
	a, err := Compile(filters)
	if err != nil {
		panic(err)
	}
	return a
}

type builder struct {
	a     *AFA
	base  int32 // the first filter index of this batch: errors count from it
	query int32
	src   string
}

func (b *builder) newState(kind StateKind) int32 {
	id := int32(len(b.a.states))
	b.a.states = append(b.a.states, state{kind: kind, query: b.query})
	return id
}

func (b *builder) newLeaf(op xmlval.Op, c xmlval.Const) int32 {
	id := b.newState(OR)
	st := &b.a.states[id]
	st.terminal = LeafTerminal
	st.op = op
	st.konst = c
	b.a.leafCount++
	return id
}

func (b *builder) newTrueTerminal() int32 {
	id := b.newState(OR)
	b.a.states[id].terminal = TrueTerminal
	return id
}

func (b *builder) addEdge(from, sym, to int32) {
	b.a.states[from].edges = append(b.a.states[from].edges, edge{sym: sym, to: to})
}

func (b *builder) addEps(from, to int32) {
	b.a.states[from].eps = append(b.a.states[from].eps, to)
}

func (b *builder) errf(format string, args ...any) error {
	return &CompileError{Query: int(b.query - b.base), Source: b.src, Msg: fmt.Sprintf(format, args...)}
}

func (b *builder) compileFilter(f *xpath.Filter, q int32) (int32, error) {
	b.query = q
	b.src = f.Source
	if b.src == "" {
		b.src = f.String()
	}
	return b.compilePath(f.Path, nil)
}

// cmpSpec is the trailing comparison of a Cmp predicate; nil means a bare
// existence path.
type cmpSpec struct {
	op xmlval.Op
	c  xmlval.Const
}

// compilePath builds the state chain for a path evaluated from a context
// node and returns the entry state (the state that matches the context
// node). With cmp set, the path's target value is compared; otherwise the
// path is an existence test.
func (b *builder) compilePath(path *xpath.Path, cmp *cmpSpec) (int32, error) {
	steps := path.Steps
	// A trailing text() step folds into the terminal: the leaf predicate
	// is activated by tvalue inside the element that owns the text.
	textStep := false
	textDescendant := false
	if n := len(steps); n > 0 && steps[n-1].Test.Kind == xpath.Text {
		textStep = true
		textDescendant = steps[n-1].Axis == xpath.Descendant
		steps = steps[:n-1]
	}
	// Drop self steps: ./x ≡ x. A descendant-or-self step (a//.) is
	// outside the supported fragment.
	kept := make([]xpath.Step, 0, len(steps))
	for _, s := range steps {
		if s.Test.Kind == xpath.Self {
			if s.Axis == xpath.Descendant {
				return 0, b.errf("descendant-or-self step (//.) not supported")
			}
			continue
		}
		kept = append(kept, s)
	}
	steps = kept

	// Build the terminal leaf, if any.
	var leaf int32 = -1
	switch {
	case cmp != nil:
		leaf = b.newLeaf(cmp.op, cmp.c)
	case textStep:
		// Bare text() existence: true on any data value.
		leaf = b.newLeaf(xmlval.OpExists, xmlval.Const{})
	}

	if len(steps) == 0 {
		// Self-only path: [.] / [.=c] / [text()=c] / [.//text()].
		if leaf < 0 {
			// exists(.): trivially true on any node.
			return b.newTrueTerminal(), nil
		}
		if textDescendant {
			// .//text(): text at any depth below the context.
			s := b.newState(OR)
			b.addEdge(s, SymAnyElem, s)
			b.addEps(s, leaf)
			return s, nil
		}
		return leaf, nil
	}

	entry := b.newState(OR)
	cur := entry
	for i := range steps {
		step := &steps[i]
		sym, err := b.stepSymbol(step)
		if err != nil {
			return 0, err
		}
		if step.Axis == xpath.Descendant {
			// Descendant axis: the context state loops on any
			// element before consuming the label.
			b.addEdge(cur, SymAnyElem, cur)
		}
		preds, err := b.compilePreds(step.Preds)
		if err != nil {
			return 0, err
		}
		last := i == len(steps)-1
		if !last {
			cont := b.newState(OR)
			tgt := cont
			if len(preds) > 0 {
				tgt = b.mkAnd(append(preds, cont))
			}
			b.addEdge(cur, sym, tgt)
			cur = cont
			continue
		}
		// Final step: attach the terminal.
		parts := preds
		if leaf >= 0 {
			if textDescendant {
				s := b.newState(OR)
				b.addEdge(s, SymAnyElem, s)
				b.addEps(s, leaf)
				parts = append(parts, s)
			} else {
				parts = append(parts, leaf)
			}
		}
		if len(parts) == 0 {
			parts = []int32{b.newTrueTerminal()}
		}
		b.addEdge(cur, sym, b.mkAnd(parts))
	}
	return entry, nil
}

func (b *builder) stepSymbol(step *xpath.Step) (int32, error) {
	switch step.Test.Kind {
	case xpath.Element:
		return b.a.Syms.Intern(step.Test.Name), nil
	case xpath.AnyElement:
		return SymAnyElem, nil
	case xpath.Attribute:
		return b.a.Syms.Intern("@" + step.Test.Name), nil
	case xpath.AnyAttribute:
		return SymAnyAttr, nil
	default:
		return 0, b.errf("unexpected node test %s in navigation", step.Test)
	}
}

// compilePreds compiles a step's predicate list to pred-root states.
func (b *builder) compilePreds(preds []xpath.Expr) ([]int32, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	out := make([]int32, 0, len(preds))
	for _, q := range preds {
		s, err := b.compileExpr(q)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// compileExpr compiles a predicate expression to a state matching the
// context node iff the expression holds there.
func (b *builder) compileExpr(e xpath.Expr) (int32, error) {
	switch x := e.(type) {
	case *xpath.And:
		conj := flattenAnd(x, nil)
		parts := make([]int32, 0, len(conj))
		for _, c := range conj {
			s, err := b.compileExpr(c)
			if err != nil {
				return 0, err
			}
			parts = append(parts, s)
		}
		return b.mkAnd(parts), nil
	case *xpath.Or:
		disj := flattenOr(x, nil)
		parts := make([]int32, 0, len(disj))
		for _, c := range disj {
			s, err := b.compileExpr(c)
			if err != nil {
				return 0, err
			}
			parts = append(parts, s)
		}
		if len(parts) == 1 {
			return parts[0], nil
		}
		s := b.newState(OR)
		for _, p := range parts {
			b.addEps(s, p)
		}
		return s, nil
	case *xpath.Not:
		child, err := b.compileExpr(x.X)
		if err != nil {
			return 0, err
		}
		s := b.newState(NOT)
		b.addEps(s, child)
		return s, nil
	case *xpath.Exists:
		return b.compilePath(x.Path, nil)
	case *xpath.Cmp:
		return b.compilePath(x.Path, &cmpSpec{op: x.Op, c: x.Const})
	default:
		return 0, b.errf("unknown expression %T", e)
	}
}

// mkAnd combines conjunct states, collapsing the single-conjunct case.
func (b *builder) mkAnd(parts []int32) int32 {
	if len(parts) == 1 {
		return parts[0]
	}
	s := b.newState(AND)
	for _, p := range parts {
		b.addEps(s, p)
	}
	return s
}

func flattenAnd(e xpath.Expr, out []xpath.Expr) []xpath.Expr {
	if a, ok := e.(*xpath.And); ok {
		out = flattenAnd(a.L, out)
		return flattenAnd(a.R, out)
	}
	return append(out, e)
}

func flattenOr(e xpath.Expr, out []xpath.Expr) []xpath.Expr {
	if o, ok := e.(*xpath.Or); ok {
		out = flattenOr(o.L, out)
		return flattenOr(o.R, out)
	}
	return append(out, e)
}

// finalize builds the derived structures of the states from `from` on and
// of the filters from nq on: back edges, ε-parents, NOT ranks, terminal
// lists, the initial set, and per-filter early states. Edges never leave a
// filter, so nothing of an earlier state changes.
func (b *builder) finalize(from int32, nq int) {
	a := b.a
	for i := from; i < int32(len(a.states)); i++ {
		for _, e := range a.states[i].edges {
			a.states[e.to].back = append(a.states[e.to].back, edge{sym: e.sym, to: i})
		}
		for _, t := range a.states[i].eps {
			a.states[t].epsParents = append(a.states[t].epsParents, i)
		}
		if a.states[i].terminal == TrueTerminal {
			a.trueTerminals = append(a.trueTerminals, i) // ascending: ids only grow
		}
	}

	// NOT ranks via memoized DFS (self-loops excluded, so the graph is
	// acyclic for ranking purposes).
	n := int32(len(a.states)) - from
	ranks := make([]int16, n)
	done := make([]bool, n)
	var rank func(int32) int16
	rank = func(s int32) int16 {
		if done[s-from] {
			return ranks[s-from]
		}
		done[s-from] = true // self-loop guard; final value set below
		var r int16
		for _, t := range a.states[s].eps {
			if rr := rank(t); rr > r {
				r = rr
			}
		}
		for _, e := range a.states[s].edges {
			if e.to == s {
				continue
			}
			if rr := rank(e.to); rr > r {
				r = rr
			}
		}
		if a.states[s].kind == NOT {
			r++
		}
		ranks[s-from] = r
		return r
	}
	for s := from; s < from+n; s++ {
		r := rank(s)
		a.states[s].notRank = r
		a.maxNotRank = max(a.maxNotRank, r)
	}
	for len(a.notsByRank) <= int(a.maxNotRank) {
		a.notsByRank = append(a.notsByRank, nil)
	}
	for s := from; s < from+n; s++ {
		if a.states[s].kind == NOT {
			a.notsByRank[ranks[s-from]] = append(a.notsByRank[ranks[s-from]], s)
		}
	}

	gated := a.computeGated(from)
	for qi := nq; qi < len(a.Queries); qi++ {
		early := a.earlyState(a.Queries[qi].Initial)
		// Early notification is sound only for "gated" states: ones
		// whose firing implies the query's navigation prefix matched.
		// NOT states (and states whose truth can arrive purely through
		// NOT branches) fire at arbitrary nodes, so queries whose
		// first branching state is ungated opt out (Early = -1).
		if !gated[early-from] {
			early = -1
		}
		a.Queries[qi].Early = early
		a.initials = append(a.initials, a.Queries[qi].Initial) // ascending
		if a.Queries[qi].HasDescendant {
			a.anyDescends = true
		}
	}
}

// computeGated classifies the states from `from` on by whether their firing
// is "navigation gated" (indexed by state minus from): a gated state can only
// appear in a bottom-up computation at a node reached through the query's
// actual navigation prefix (terminal states are gated because tvalue and the
// TrueTerminal injection are filtered by the top-down state; AND states are
// gated when at least one conjunct is; OR states need all alternatives gated;
// NOT states are never gated — they fire on absence, anywhere).
func (a *AFA) computeGated(from int32) []bool {
	n := int32(len(a.states)) - from
	gated := make([]bool, n)
	visited := make([]bool, n)
	var rec func(int32) bool
	rec = func(s int32) bool {
		if visited[s-from] {
			return gated[s-from]
		}
		visited[s-from] = true // self-loop guard: defaults to false while open
		st := &a.states[s]
		var g bool
		switch {
		case st.kind == NOT:
			g = false
		case st.terminal != NonTerminal:
			g = true
		case st.kind == AND:
			for _, c := range st.eps {
				if rec(c) {
					g = true
					break
				}
			}
		default: // OR: existential over ε children and non-self targets
			g = true
			for _, c := range st.eps {
				if !rec(c) {
					g = false
					break
				}
			}
			if g {
				for _, e := range st.edges {
					if e.to != s && !rec(e.to) {
						g = false
						break
					}
				}
			}
		}
		gated[s-from] = g
		return g
	}
	for s := from; s < from+n; s++ {
		rec(s)
	}
	return gated
}

// earlyState walks from the initial state down the unique non-branching
// chain and returns the first branching state (Sec. 5, early notification).
// For a linear filter this is the unique terminal state.
func (a *AFA) earlyState(init int32) int32 {
	s := init
	for steps := 0; steps < len(a.states)+1; steps++ {
		st := &a.states[s]
		if st.terminal != NonTerminal || st.kind == NOT {
			return s
		}
		var succ []int32
		for _, e := range st.edges {
			if e.to != s { // skip descendant self-loops
				succ = append(succ, e.to)
			}
		}
		succ = append(succ, st.eps...)
		if len(succ) != 1 {
			return s
		}
		s = succ[0]
	}
	return s
}

// ApplyOrder fills the prec lists used by the order optimization: for two
// states s, s' that are ε-children of the same AND state, s ≺ s' when every
// outgoing label of s precedes every outgoing label of s' under the sibling
// order; a state with a wildcard or self-loop transition is incomparable
// (Sec. 5). Calling ApplyOrder replaces any previous prec assignment.
func (a *AFA) ApplyOrder(order interface{ Precedes(x, y string) bool }) {
	a.ApplyOrderFrom(0, order)
}

// ApplyOrderFrom is ApplyOrder for the states from `from` on, the ones an
// Extend added: an AND state and its ε-children belong to one filter, so the
// earlier states' prec lists stay as they are.
func (a *AFA) ApplyOrderFrom(from int32, order interface{ Precedes(x, y string) bool }) {
	for i := from; i < int32(len(a.states)); i++ {
		a.states[i].prec = nil
	}
	for i := from; i < int32(len(a.states)); i++ {
		if a.states[i].kind != AND {
			continue
		}
		children := a.states[i].eps
		for _, s := range children {
			for _, t := range children {
				if s == t {
					continue
				}
				if a.labelsPrecede(s, t, order) {
					// s ≺ t: record s in prec(t).
					a.states[t].prec = append(a.states[t].prec, s)
				}
			}
		}
	}
	for i := from; i < int32(len(a.states)); i++ {
		slices.Sort(a.states[i].prec)
	}
}

// labelsPrecede reports whether every outgoing label of s precedes every
// outgoing label of t.
func (a *AFA) labelsPrecede(s, t int32, order interface{ Precedes(x, y string) bool }) bool {
	se, te := a.states[s].edges, a.states[t].edges
	if len(se) == 0 || len(te) == 0 {
		return false
	}
	for _, e1 := range se {
		if e1.sym == SymAnyElem || e1.sym == SymAnyAttr || e1.to == s {
			return false
		}
		for _, e2 := range te {
			if e2.sym == SymAnyElem || e2.sym == SymAnyAttr || e2.to == t {
				return false
			}
			if !order.Precedes(a.Syms.Name(e1.sym), a.Syms.Name(e2.sym)) {
				return false
			}
		}
	}
	return true
}
