// Package naive provides the correctness oracle and scalability strawman for
// the XPush machine: it materialises each XML document as an in-memory tree
// (the DOM representation the paper's streaming approach avoids) and
// evaluates every XPath filter on it directly and independently.
//
// Its semantics define the reference behaviour the XPush machine must agree
// with; the differential tests in internal/core run both on random
// workloads and documents.
package naive

import (
	"repro/internal/sax"
	"repro/internal/xmlval"
	"repro/internal/xpath"
)

// NodeKind discriminates tree nodes.
type NodeKind uint8

const (
	// ElementNode is an element; attributes are pseudo-element children
	// whose name carries the "@" prefix, matching the SAX convention.
	ElementNode NodeKind = iota
	// AttrNode is an attribute pseudo-element.
	AttrNode
	// TextNode is a run of character data.
	TextNode
	// RootNode is the virtual node above the document element (the
	// XPath evaluation root).
	RootNode
)

// Node is one node of the document tree.
type Node struct {
	Kind     NodeKind
	Name     string // element/attribute label
	Value    string // text content for TextNode (and attribute values)
	Children []*Node
}

// Build parses a buffer holding one or more XML documents into trees, one
// per document. It parses with encoding/xml (sax.StdParse), so the oracle
// shares no code with the scanner the engines it checks run on.
func Build(data []byte) ([]*Node, error) {
	b := &builder{}
	if err := sax.StdParse(data, b); err != nil {
		return nil, err
	}
	return b.docs, nil
}

type builder struct {
	docs  []*Node
	stack []*Node
}

func (b *builder) StartDocument() {
	root := &Node{Kind: RootNode}
	b.docs = append(b.docs, root)
	b.stack = b.stack[:0]
	b.stack = append(b.stack, root)
}

func (b *builder) StartElement(name string) {
	kind := ElementNode
	if sax.IsAttr(name) {
		kind = AttrNode
	}
	n := &Node{Kind: kind, Name: name}
	top := b.stack[len(b.stack)-1]
	top.Children = append(top.Children, n)
	b.stack = append(b.stack, n)
}

func (b *builder) Text(data string) {
	top := b.stack[len(b.stack)-1]
	top.Children = append(top.Children, &Node{Kind: TextNode, Value: data})
}

func (b *builder) EndElement(name string) {
	b.stack = b.stack[:len(b.stack)-1]
}

func (b *builder) EndDocument() {}

// Matches reports whether the filter selects at least one node when
// evaluated on the document tree.
func Matches(f *xpath.Filter, doc *Node) bool {
	return len(selectPath(f.Path, []*Node{doc})) > 0
}

// selectPath evaluates a path from a set of context nodes and returns the
// selected nodes.
func selectPath(p *xpath.Path, ctx []*Node) []*Node {
	cur := ctx
	for i := range p.Steps {
		step := &p.Steps[i]
		var next []*Node
		for _, n := range cur {
			next = appendStepMatches(next, n, step)
		}
		cur = dedupNodes(next)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// appendStepMatches appends the nodes selected by one step from one context
// node.
func appendStepMatches(out []*Node, n *Node, step *xpath.Step) []*Node {
	if step.Test.Kind == xpath.Self {
		if step.Axis == xpath.Descendant {
			// Descendant-or-self is rejected by the AFA compiler;
			// mirror that by selecting nothing.
			return out
		}
		if stepPredicatesHold(n, step) {
			out = append(out, n)
		}
		return out
	}
	candidates := directChildren(n)
	if step.Axis == xpath.Descendant {
		// descendant::test ≡ children of n and of every element
		// descendant of n.
		var walk func(*Node)
		walk = func(x *Node) {
			for _, c := range x.Children {
				if testMatches(c, step.Test) && stepPredicatesHold(c, step) {
					out = append(out, c)
				}
				if c.Kind == ElementNode {
					walk(c)
				}
			}
		}
		walk(n)
		return out
	}
	for _, c := range candidates {
		if testMatches(c, step.Test) && stepPredicatesHold(c, step) {
			out = append(out, c)
		}
	}
	return out
}

func directChildren(n *Node) []*Node { return n.Children }

func testMatches(n *Node, t xpath.NodeTest) bool {
	switch t.Kind {
	case xpath.Element:
		return n.Kind == ElementNode && n.Name == t.Name
	case xpath.Attribute:
		return n.Kind == AttrNode && n.Name == "@"+t.Name
	case xpath.AnyElement:
		return n.Kind == ElementNode
	case xpath.AnyAttribute:
		return n.Kind == AttrNode
	case xpath.Text:
		return n.Kind == TextNode
	default:
		return false
	}
}

func stepPredicatesHold(n *Node, step *xpath.Step) bool {
	for _, q := range step.Preds {
		if !evalExpr(q, n) {
			return false
		}
	}
	return true
}

func evalExpr(e xpath.Expr, n *Node) bool {
	switch x := e.(type) {
	case *xpath.And:
		return evalExpr(x.L, n) && evalExpr(x.R, n)
	case *xpath.Or:
		return evalExpr(x.L, n) || evalExpr(x.R, n)
	case *xpath.Not:
		return !evalExpr(x.X, n)
	case *xpath.Exists:
		return len(selectPath(x.Path, []*Node{n})) > 0
	case *xpath.Cmp:
		return evalCmp(x, n)
	default:
		return false
	}
}

// evalCmp evaluates E op const: the relative path's selected nodes are
// reduced to data values and the predicate holds if some value satisfies it.
// A path ending in an element label compares the element's direct text runs
// (the b=1 ≡ b/text()=1 reading documented in DESIGN.md); attributes compare
// their value.
func evalCmp(c *xpath.Cmp, n *Node) bool {
	nodes := selectPath(c.Path, []*Node{n})
	for _, sel := range nodes {
		switch sel.Kind {
		case TextNode:
			if xmlval.Eval(c.Op, xmlval.New(sel.Value), c.Const) {
				return true
			}
		case AttrNode, ElementNode:
			for _, ch := range sel.Children {
				if ch.Kind == TextNode && xmlval.Eval(c.Op, xmlval.New(ch.Value), c.Const) {
					return true
				}
			}
		}
	}
	return false
}

func dedupNodes(nodes []*Node) []*Node {
	if len(nodes) < 2 {
		return nodes
	}
	seen := make(map[*Node]bool, len(nodes))
	out := nodes[:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Engine is the naive baseline: it evaluates every filter independently on a
// DOM built per document.
type Engine struct {
	filters []*xpath.Filter
}

// NewEngine builds a naive engine over a workload.
func NewEngine(filters []*xpath.Filter) *Engine {
	return &Engine{filters: filters}
}

// FilterDocument parses one document and returns the sorted oids (workload
// indexes) of the filters that match it.
func (e *Engine) FilterDocument(data []byte) ([]int32, error) {
	docs, err := Build(data)
	if err != nil {
		return nil, err
	}
	var out []int32
	for i, f := range e.filters {
		for _, d := range docs {
			if Matches(f, d) {
				out = append(out, int32(i))
				break
			}
		}
	}
	return out, nil
}

// FilterTree returns the sorted oids of filters matching an already built
// tree.
func (e *Engine) FilterTree(doc *Node) []int32 {
	var out []int32
	for i, f := range e.filters {
		if Matches(f, doc) {
			out = append(out, int32(i))
		}
	}
	return out
}
