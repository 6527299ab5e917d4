package afa

import (
	"fmt"
	"testing"

	"repro/internal/xmlval"
	"repro/internal/xpath"
)

// compileRunning compiles the running example P1, P2 of Example 1.1.
func compileRunning(t *testing.T) *AFA {
	t.Helper()
	a, err := Compile([]*xpath.Filter{
		xpath.MustParse("//a[b/text()=1 and .//a[@c>2]]"),
		xpath.MustParse("//a[@c>2 and b/text()=1]"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// State numbering produced by the compiler for the running example
// (isomorphic to Fig. 4 of the paper; the paper numbers 1..13):
//
//	A1: 0=initial(OR, *-loop, a→6)  6=AND{2,3}
//	    2=OR(b→1)   1=leaf[=1]      3=OR(*-loop, a→5)  5=OR(@c→4)  4=leaf[>2]
//	A2: 7=initial(OR, *-loop, a→12) 12=AND{9,11}
//	    9=OR(@c→8)  8=leaf[>2]      11=OR(b→10)        10=leaf[=1]
func TestCompileRunningExampleStructure(t *testing.T) {
	a := compileRunning(t)
	if a.NumStates() != 13 {
		t.Fatalf("states = %d, want 13 (7+6 per Fig. 4); dump:\n%s", a.NumStates(), dumpAll(a))
	}
	if a.NumLeafTerminals() != 4 {
		t.Errorf("leaf terminals = %d, want 4", a.NumLeafTerminals())
	}
	if len(a.TrueTerminals()) != 0 {
		t.Errorf("true terminals = %v, want none", a.TrueTerminals())
	}
	q0, q1 := a.Queries[0], a.Queries[1]
	if q0.Initial != 0 || q1.Initial != 7 {
		t.Errorf("initials = %d, %d", q0.Initial, q1.Initial)
	}
	if !q0.HasDescendant || !q1.HasDescendant {
		t.Error("both queries use //")
	}
	// The first branching states (paper: 2 and 9) are the AND states.
	if a.Kind(q0.Early) != AND || a.Kind(q1.Early) != AND {
		t.Errorf("early states %d(%v), %d(%v) should be the ANDs",
			q0.Early, a.Kind(q0.Early), q1.Early, a.Kind(q1.Early))
	}
	// Leaf predicates match Fig. 4.
	checkLeaf := func(s int32, wantOp xmlval.Op, wantC float64) {
		t.Helper()
		if a.Terminal(s) != LeafTerminal {
			t.Fatalf("state %d not leaf: %s", s, a.DumpState(s))
		}
		op, c := a.Predicate(s)
		if op != wantOp || c.Num != wantC {
			t.Errorf("state %d predicate %v %v", s, op, c)
		}
	}
	checkLeaf(1, xmlval.OpEq, 1)
	checkLeaf(4, xmlval.OpGt, 2)
	checkLeaf(8, xmlval.OpGt, 2)
	checkLeaf(10, xmlval.OpEq, 1)
}

func dumpAll(a *AFA) string {
	out := ""
	for i := 0; i < a.NumStates(); i++ {
		out += a.DumpState(int32(i)) + "\n"
	}
	return out
}

// TestPaperTransitionComputations replays the transition computations worked
// through in Example 3.4, translated to our state numbering:
// paper {4,13}=q1 ↦ {1,10}; {3,12}=q3 ↦ {2,11}; {6,10}=q4 ↦ {5,9};
// {5}=q6 ↦ {3}; {3,5,12}=q8 ↦ {2,3,11}; {1,5}=q14 ↦ {0,3}.
func TestPaperTransitionComputations(t *testing.T) {
	a := compileRunning(t)
	ev := a.NewEvaluator()
	symB, _ := a.Syms.Lookup("b")
	symA, _ := a.Syms.Lookup("a")
	symC, _ := a.Syms.Lookup("@c")

	// tpop(q1, b) = δ⁻¹(eval({1,10}), b) = {2,11}   (paper: {3,12}).
	got := a.DeltaInv(ev.Eval([]int32{1, 10}, nil), symB, nil)
	if fmt.Sprint(got) != "[2 11]" {
		t.Errorf("tpop(q1,b) = %v, want [2 11]", got)
	}
	// tpop(q2, @c) = {5, 9}   (paper: tpop(q2,@c) = {6,10}).
	got = a.DeltaInv(ev.Eval([]int32{4, 8}, nil), symC, nil)
	if fmt.Sprint(got) != "[5 9]" {
		t.Errorf("tpop(q2,@c) = %v, want [5 9]", got)
	}
	// tpop(q4, a) = {3}   (paper: tpop(q4,a) = q6 = {5}).
	got = a.DeltaInv(ev.Eval([]int32{5, 9}, nil), symA, nil)
	if fmt.Sprint(got) != "[3]" {
		t.Errorf("tpop(q4,a) = %v, want [3]", got)
	}
	// eval(q8) = eval({2,3,11}) = {2,3,6,11}: the AND of A1 joins
	// (paper: eval({3,5,12}) = {2,3,5,12}).
	if got := ev.Eval([]int32{2, 3, 11}, nil); fmt.Sprint(got) != "[2 3 6 11]" {
		t.Errorf("eval(q8) = %v, want [2 3 6 11]", got)
	}
	// tpop(q8, a) = {0, 3}   (paper: {1,5} = q14).
	got = a.DeltaInv(ev.Eval([]int32{2, 3, 11}, nil), symA, nil)
	if fmt.Sprint(got) != "[0 3]" {
		t.Errorf("tpop(q8,a) = %v, want [0 3]", got)
	}
}

func TestDeltaForward(t *testing.T) {
	a := compileRunning(t)
	symA, _ := a.Syms.Lookup("a")
	symB, _ := a.Syms.Lookup("b")
	// δ(0, a) = {0, 6}: the initial state self-loops on * and advances.
	if got := a.Delta(0, symA, nil); fmt.Sprint(got) != "[0 6]" {
		t.Errorf("δ(0,a) = %v", got)
	}
	// δ(0, b) = {0}: only the wildcard loop.
	if got := a.Delta(0, symB, nil); fmt.Sprint(got) != "[0]" {
		t.Errorf("δ(0,b) = %v", got)
	}
	// δ(3, a) = {3, 5} (paper δ(5,a) = {5,6}).
	if got := a.Delta(3, symA, nil); fmt.Sprint(got) != "[3 5]" {
		t.Errorf("δ(3,a) = %v", got)
	}
	// Unknown labels only fire wildcards.
	if got := a.Delta(0, SymOtherElem, nil); fmt.Sprint(got) != "[0]" {
		t.Errorf("δ(0,other) = %v", got)
	}
	if got := a.Delta(5, SymOtherAttr, nil); len(got) != 0 {
		t.Errorf("δ(5,otherattr) = %v", got)
	}
}

func TestTrueTerminalsForStructuralFilters(t *testing.T) {
	a := MustCompile(
		xpath.MustParse("/a/b"),
		xpath.MustParse("/x[y]"),
	)
	if len(a.TrueTerminals()) != 2 {
		t.Fatalf("true terminals = %v\n%s", a.TrueTerminals(), dumpAll(a))
	}
	// Early state of a linear filter is its unique terminal.
	if a.Terminal(a.Queries[0].Early) != TrueTerminal {
		t.Errorf("early of /a/b = %s", a.DumpState(a.Queries[0].Early))
	}
}

func TestWildcardAndAttributeCompilation(t *testing.T) {
	a := MustCompile(xpath.MustParse("/*[@*=1]/c"))
	// entry --*--> AND? No: step * has pred [@*=1] and continuation c:
	// entry --*--> AND{predroot, cont}, cont --c--> TT.
	init := a.Queries[0].Initial
	tgt := a.Delta(init, SymOtherElem, nil)
	if len(tgt) != 1 || a.Kind(tgt[0]) != AND {
		t.Fatalf("δ(init, other) = %v\n%s", tgt, dumpAll(a))
	}
}

func TestNestedNotEval(t *testing.T) {
	// /a[not(not(b=1))] must behave like /a[b=1] through two NOT strata.
	a := MustCompile(xpath.MustParse("/a[not(not(b=1))]"))
	ev := a.NewEvaluator()
	// Find the leaf.
	var leaf int32 = -1
	a.EachLeafTerminal(func(s int32, op xmlval.Op, c xmlval.Const) { leaf = s })
	if leaf < 0 {
		t.Fatal("no leaf")
	}
	symB, _ := a.Syms.Lookup("b")
	symA, _ := a.Syms.Lookup("a")
	// With the leaf matched on b's text: popping b yields the inner OR;
	// eval then flips inner NOT off, outer NOT... work the full chain:
	qb := a.DeltaInv(ev.Eval([]int32{leaf}, nil), symB, nil)
	// qb matches the a element: {entry-of-b-path}. eval(qb) must contain
	// the outer NOT (b=1 holds → inner not false → outer not true).
	closed := ev.Eval(qb, nil)
	qaux := a.DeltaInv(closed, symA, nil)
	if fmt.Sprint(qaux) != fmt.Sprintf("[%d]", a.Queries[0].Initial) {
		t.Errorf("not(not(b=1)) with b=1: pop(a) = %v, want initial", qaux)
	}
	// Without the leaf: eval(∅) contains inner NOT but not outer; popping
	// a yields nothing.
	qaux = a.DeltaInv(ev.Eval(nil, nil), symA, nil)
	if len(qaux) != 0 {
		t.Errorf("not(not(b=1)) with no b: pop(a) = %v, want empty", qaux)
	}
}

func TestSingleNotEval(t *testing.T) {
	// /a[not(b=1)]: the NOT fires exactly when the leaf is absent.
	a := MustCompile(xpath.MustParse("/a[not(b=1)]"))
	ev := a.NewEvaluator()
	symA, _ := a.Syms.Lookup("a")
	if got := a.DeltaInv(ev.Eval(nil, nil), symA, nil); fmt.Sprint(got) != fmt.Sprintf("[%d]", a.Queries[0].Initial) {
		t.Errorf("empty qb: pop(a) = %v, want initial", got)
	}
	var leaf int32 = -1
	a.EachLeafTerminal(func(s int32, _ xmlval.Op, _ xmlval.Const) { leaf = s })
	symB, _ := a.Syms.Lookup("b")
	qb := a.DeltaInv(ev.Eval([]int32{leaf}, nil), symB, nil)
	if got := a.DeltaInv(ev.Eval(qb, nil), symA, nil); len(got) != 0 {
		t.Errorf("b=1 present: pop(a) = %v, want empty", got)
	}
}

func TestOrEval(t *testing.T) {
	a := MustCompile(xpath.MustParse("/a[b=1 or c=2]"))
	ev := a.NewEvaluator()
	var leaves []int32
	a.EachLeafTerminal(func(s int32, _ xmlval.Op, _ xmlval.Const) { leaves = append(leaves, s) })
	if len(leaves) != 2 {
		t.Fatalf("leaves = %v", leaves)
	}
	symB, _ := a.Syms.Lookup("b")
	symA, _ := a.Syms.Lookup("a")
	qb := a.DeltaInv(ev.Eval(leaves[:1], nil), symB, nil)
	closed := ev.Eval(qb, nil)
	if got := a.DeltaInv(closed, symA, nil); fmt.Sprint(got) != fmt.Sprintf("[%d]", a.Queries[0].Initial) {
		t.Errorf("or left branch: %v", got)
	}
}

func TestExistsViaTrueTerminalInjection(t *testing.T) {
	// /a[b]: popping an empty <b/> must still match, via injecting the
	// TrueTerminal into eval.
	a := MustCompile(xpath.MustParse("/a[b]"))
	ev := a.NewEvaluator()
	symB, _ := a.Syms.Lookup("b")
	symA, _ := a.Syms.Lookup("a")
	qb := a.DeltaInv(ev.Eval(nil, a.TrueTerminals()), symB, nil)
	if len(qb) != 1 {
		t.Fatalf("pop(b) = %v", qb)
	}
	if got := a.DeltaInv(ev.Eval(qb, a.TrueTerminals()), symA, nil); fmt.Sprint(got) != fmt.Sprintf("[%d]", a.Queries[0].Initial) {
		t.Errorf("pop(a) = %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"/a[b//.=1]", // descendant-or-self
	}
	for _, q := range bad {
		if _, err := Compile([]*xpath.Filter{xpath.MustParse(q)}); err == nil {
			t.Errorf("Compile(%q) succeeded", q)
		}
	}
}

func TestEarlyStateLinearQuery(t *testing.T) {
	a := MustCompile(xpath.MustParse("//x/y[z=5]"))
	// Single predicate: the chain is linear; early is the leaf terminal.
	if a.Terminal(a.Queries[0].Early) != LeafTerminal {
		t.Errorf("early = %s", a.DumpState(a.Queries[0].Early))
	}
}

type fixedOrder map[[2]string]bool

func (f fixedOrder) Precedes(a, b string) bool {
	if len(a) > 0 && a[0] == '@' && (len(b) == 0 || b[0] != '@') {
		return true
	}
	return f[[2]string{a, b}]
}

func TestApplyOrder(t *testing.T) {
	a := MustCompile(xpath.MustParse("/person[name='x' and age=3 and phone=5]"))
	a.ApplyOrder(fixedOrder{
		{"name", "age"}: true, {"age", "phone"}: true, {"name", "phone"}: true,
	})
	// Find the AND and its children; each child's prec must list the
	// earlier siblings.
	var and int32 = -1
	for i := 0; i < a.NumStates(); i++ {
		if a.Kind(int32(i)) == AND {
			and = int32(i)
		}
	}
	if and < 0 {
		t.Fatal("no AND state")
	}
	kids := a.Eps(and)
	if len(kids) != 3 {
		t.Fatalf("AND children = %v", kids)
	}
	if len(a.Prec(kids[0])) != 0 {
		t.Errorf("prec(name-branch) = %v", a.Prec(kids[0]))
	}
	if fmt.Sprint(a.Prec(kids[1])) != fmt.Sprintf("[%d]", kids[0]) {
		t.Errorf("prec(age-branch) = %v", a.Prec(kids[1]))
	}
	if len(a.Prec(kids[2])) != 2 {
		t.Errorf("prec(phone-branch) = %v", a.Prec(kids[2]))
	}
}

func TestApplyOrderAttributesFirst(t *testing.T) {
	a := MustCompile(xpath.MustParse("/r[@id=1 and name='x']"))
	a.ApplyOrder(fixedOrder{})
	var and int32 = -1
	for i := 0; i < a.NumStates(); i++ {
		if a.Kind(int32(i)) == AND {
			and = int32(i)
		}
	}
	kids := a.Eps(and)
	// The name branch must require the @id branch first.
	if fmt.Sprint(a.Prec(kids[1])) != fmt.Sprintf("[%d]", kids[0]) {
		t.Errorf("prec(name) = %v", a.Prec(kids[1]))
	}
}

func TestApplyOrderWildcardUnordered(t *testing.T) {
	a := MustCompile(xpath.MustParse("/r[*=1 and b=2]"))
	a.ApplyOrder(fixedOrder{{"*", "b"}: true})
	for i := 0; i < a.NumStates(); i++ {
		if len(a.Prec(int32(i))) != 0 {
			t.Errorf("wildcard branch got ordered: %s", a.DumpState(int32(i)))
		}
	}
}

func TestSymbols(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("a")
	at := s.Intern("@c")
	if s.IsAttr(a) || !s.IsAttr(at) {
		t.Error("IsAttr wrong")
	}
	if s.Intern("a") != a {
		t.Error("intern not idempotent")
	}
	if s.InputSymBytes([]byte("a")) != a {
		t.Error("InputSymBytes known")
	}
	if s.InputSymBytes([]byte("zzz")) != SymOtherElem || s.InputSymBytes([]byte("@zzz")) != SymOtherAttr {
		t.Error("InputSymBytes sentinels")
	}
	if !s.Matches(SymAnyElem, SymOtherElem) || s.Matches(SymAnyElem, SymOtherAttr) {
		t.Error("wildcard matching on sentinels")
	}
	if !s.Matches(a, a) || s.Matches(a, at) {
		t.Error("exact matching")
	}
	if !s.Matches(SymAnyAttr, at) || s.Matches(SymAnyAttr, a) {
		t.Error("@* matching")
	}
	if s.Len() != 6 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Name(a) != "a" {
		t.Errorf("Name = %q", s.Name(a))
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Error("Lookup invented a symbol")
	}
}

func TestEvaluatorEpochWrap(t *testing.T) {
	a := compileRunning(t)
	ev := a.NewEvaluator()
	ev.epoch = ^uint32(0) - 1
	r1 := fmt.Sprint(ev.Eval([]int32{2, 3, 11}, nil))
	r2 := fmt.Sprint(ev.Eval([]int32{2, 3, 11}, nil)) // wraps here
	r3 := fmt.Sprint(ev.Eval([]int32{2, 3, 11}, nil))
	if r1 != r2 || r2 != r3 {
		t.Errorf("epoch wrap changed results: %s %s %s", r1, r2, r3)
	}
}
