// Package yfilter is a YFilter-style baseline [11]: the navigation skeletons
// of all filters are merged into one prefix-shared NFA that is simulated
// top-down over the event stream, so common path prefixes (including
// wildcards and descendant axes) are evaluated once. Value predicates,
// however, are NOT shared: filters whose skeleton matched are re-checked
// individually on an in-memory tree — the post-processing approach of the
// prior systems the paper improves on. The gap between this engine and the
// XPush machine on predicate-heavy workloads is the paper's central claim.
package yfilter

import (
	"sort"

	"repro/internal/naive"
	"repro/internal/sax"
	"repro/internal/xpath"
)

// stepKey identifies one navigation step for prefix sharing.
type stepKey struct {
	axis xpath.Axis
	kind xpath.TestKind
	name string
}

// node is one NFA state of the shared path trie.
type node struct {
	children map[stepKey]int32

	// Flattened runtime transitions, built in finish().
	clabel map[string][]int32 // child axis, concrete label ("@x" for attrs)
	cstar  []int32            // child axis, * (elements)
	cattr  []int32            // child axis, @*
	dlabel map[string][]int32 // descendant axis
	dstar  []int32
	dattr  []int32
	sticky bool // has descendant edges: stays active below

	acceptElem []int32 // queries whose skeleton ends by entering this node
	acceptText []int32 // queries whose skeleton ends with a text() child here
	dtext      []int32 // queries whose skeleton ends with a descendant text()
}

// Engine is the shared-navigation baseline engine.
type Engine struct {
	filters   []*xpath.Filter
	needsFull []bool // filter has predicates → needs the per-query recheck
	nodes     []*node

	// Run scratch.
	active  [][]int32
	matched []bool
	scan    sax.ByteScanner
	events  sax.Collector
}

// NewEngine builds the shared NFA over the workload's navigation skeletons.
func NewEngine(filters []*xpath.Filter) *Engine {
	e := &Engine{filters: filters, needsFull: make([]bool, len(filters))}
	e.nodes = append(e.nodes, &node{children: map[stepKey]int32{}})
	for qi, f := range filters {
		e.addSkeleton(int32(qi), f)
	}
	for _, n := range e.nodes {
		n.finish()
	}
	e.matched = make([]bool, len(filters))
	return e
}

// addSkeleton inserts the filter's top-level path, predicates stripped.
func (e *Engine) addSkeleton(qi int32, f *xpath.Filter) {
	cur := int32(0)
	hasPreds := false
	steps := f.Path.Steps
	for si := range steps {
		step := &steps[si]
		if len(step.Preds) > 0 {
			hasPreds = true
		}
		if step.Test.Kind == xpath.Self {
			continue
		}
		if step.Test.Kind == xpath.Text {
			// Terminal text step: record on the current node.
			n := e.nodes[cur]
			if step.Axis == xpath.Descendant {
				n.dtext = append(n.dtext, qi)
				n.sticky = true
			} else {
				n.acceptText = append(n.acceptText, qi)
			}
			break
		}
		key := stepKey{axis: step.Axis, kind: step.Test.Kind, name: step.Test.Name}
		next, ok := e.nodes[cur].children[key]
		if !ok {
			next = int32(len(e.nodes))
			e.nodes = append(e.nodes, &node{children: map[stepKey]int32{}})
			e.nodes[cur].children[key] = next
		}
		if si == len(steps)-1 {
			e.nodes[next].acceptElem = append(e.nodes[next].acceptElem, qi)
		}
		cur = next
	}
	e.needsFull[int(qi)] = hasPreds
}

// finish flattens trie children into runtime transition tables.
func (n *node) finish() {
	n.clabel = map[string][]int32{}
	n.dlabel = map[string][]int32{}
	for key, target := range n.children {
		var lbl map[string][]int32
		var star, attr *[]int32
		if key.axis == xpath.Descendant {
			lbl = n.dlabel
			star, attr = &n.dstar, &n.dattr
			n.sticky = true
		} else {
			lbl = n.clabel
			star, attr = &n.cstar, &n.cattr
		}
		switch key.kind {
		case xpath.Element:
			lbl[key.name] = append(lbl[key.name], target)
		case xpath.Attribute:
			lbl["@"+key.name] = append(lbl["@"+key.name], target)
		case xpath.AnyElement:
			*star = append(*star, target)
		case xpath.AnyAttribute:
			*attr = append(*attr, target)
		}
	}
}

// FilterDocument runs the engine over one or more documents, parsed with
// the XPush machine's own ByteScanner, and returns the sorted oids of
// filters matching any of them.
func (e *Engine) FilterDocument(data []byte) ([]int32, error) {
	e.events.Reset()
	if err := e.scan.Parse(data, &e.events); err != nil {
		return nil, err
	}
	return e.FilterEvents(e.events.Events)
}

// FilterEvents runs the engine over pre-parsed events.
func (e *Engine) FilterEvents(events []sax.Event) ([]int32, error) {
	for i := range e.matched {
		e.matched[i] = false
	}
	var docEvents []sax.Event
	var out []int32
	skeleton := make([]bool, len(e.filters))
	for _, ev := range events {
		switch ev.Kind {
		case sax.StartDocument:
			docEvents = docEvents[:0]
			for i := range skeleton {
				skeleton[i] = false
			}
			e.active = e.active[:0]
			e.active = append(e.active, []int32{0})
			docEvents = append(docEvents, ev)
		case sax.StartElement:
			docEvents = append(docEvents, ev)
			e.pushLevel(ev.Name, skeleton)
		case sax.Text:
			docEvents = append(docEvents, ev)
			cur := e.active[len(e.active)-1]
			for _, entry := range cur {
				ni, fresh := decode(entry)
				n := e.nodes[ni]
				if fresh {
					for _, q := range n.acceptText {
						skeleton[q] = true
					}
				}
				for _, q := range n.dtext {
					skeleton[q] = true
				}
			}
		case sax.EndElement:
			docEvents = append(docEvents, ev)
			e.active = e.active[:len(e.active)-1]
		case sax.EndDocument:
			docEvents = append(docEvents, ev)
			e.finishDoc(docEvents, skeleton)
		}
	}
	for q, ok := range e.matched {
		if ok {
			out = append(out, int32(q))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Active-set entries distinguish fresh activations (the node was entered at
// this exact level — its child-axis edges apply) from sticky residues (the
// node is an ancestor with descendant edges — only those apply). Sticky
// entries are encoded as the bitwise complement of the node id.
func decode(entry int32) (ni int32, fresh bool) {
	if entry < 0 {
		return ^entry, false
	}
	return entry, true
}

// pushLevel advances the NFA one element down.
func (e *Engine) pushLevel(label string, skeleton []bool) {
	cur := e.active[len(e.active)-1]
	isAttr := sax.IsAttr(label)
	var next []int32
	enter := func(targets []int32) {
		for _, t := range targets {
			next = append(next, t)
			for _, q := range e.nodes[t].acceptElem {
				skeleton[q] = true
			}
		}
	}
	for _, entry := range cur {
		ni, fresh := decode(entry)
		n := e.nodes[ni]
		if fresh {
			enter(n.clabel[label])
			if isAttr {
				enter(n.cattr)
			} else {
				enter(n.cstar)
			}
		}
		enter(n.dlabel[label])
		if isAttr {
			enter(n.dattr)
		} else {
			enter(n.dstar)
		}
		if n.sticky && !isAttr {
			next = append(next, ^ni)
		}
	}
	e.active = append(e.active, dedupInt32(next))
}

// finishDoc rechecks predicate-bearing filters whose skeleton matched.
func (e *Engine) finishDoc(docEvents []sax.Event, skeleton []bool) {
	var tree *naive.Node
	for q, ok := range skeleton {
		if !ok || e.matched[q] {
			continue
		}
		if !e.needsFull[q] {
			e.matched[q] = true
			continue
		}
		if tree == nil {
			tree = buildTree(docEvents)
		}
		if naive.Matches(e.filters[q], tree) {
			e.matched[q] = true
		}
	}
}

func buildTree(events []sax.Event) *naive.Node {
	root := &naive.Node{Kind: naive.RootNode}
	stack := []*naive.Node{root}
	for _, ev := range events {
		switch ev.Kind {
		case sax.StartElement:
			kind := naive.ElementNode
			if sax.IsAttr(ev.Name) {
				kind = naive.AttrNode
			}
			n := &naive.Node{Kind: kind, Name: ev.Name}
			top := stack[len(stack)-1]
			top.Children = append(top.Children, n)
			stack = append(stack, n)
		case sax.Text:
			top := stack[len(stack)-1]
			top.Children = append(top.Children, &naive.Node{Kind: naive.TextNode, Value: ev.Data})
		case sax.EndElement:
			stack = stack[:len(stack)-1]
		}
	}
	return root
}

func dedupInt32(ids []int32) []int32 {
	if len(ids) < 2 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[w-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w]
}

// NumNodes reports the shared NFA size (for tests and reporting).
func (e *Engine) NumNodes() int { return len(e.nodes) }
