package predindex

import "slices"

// Aho–Corasick dictionary automaton for the contains(·) predicate extension,
// and a plain prefix trie for starts-with(·), per the paper's pointer to
// Aho and Corasick's dictionary search tree (Sec. 2).

// acNode is one state of the Aho–Corasick automaton. Children are kept in a
// byte-indexed map during construction and flattened on build.
type acNode struct {
	children map[byte]int32
	fail     int32
	own      []int32 // predicate ids of patterns ending here
	out      []int32 // own plus the outputs along the failure links
}

type acAutomaton struct {
	nodes []acNode
	built bool
	n     int // number of patterns
}

func (a *acAutomaton) add(pattern string, id int32) {
	if a.nodes == nil {
		a.nodes = []acNode{{children: map[byte]int32{}}}
	}
	cur := int32(0)
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		next, ok := a.nodes[cur].children[c]
		if !ok {
			next = int32(len(a.nodes))
			a.nodes = append(a.nodes, acNode{children: map[byte]int32{}})
			a.nodes[cur].children[c] = next
		}
		cur = next
	}
	a.nodes[cur].own = append(a.nodes[cur].own, id)
	a.n++
}

// build computes failure links (BFS) and merges output sets along them. It
// may run again after more patterns were added.
func (a *acAutomaton) build() {
	if a.nodes == nil {
		return
	}
	for i := range a.nodes {
		a.nodes[i].out = a.nodes[i].own
	}
	queue := make([]int32, 0, len(a.nodes))
	for _, next := range a.nodes[0].children {
		a.nodes[next].fail = 0
		queue = append(queue, next)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for c, v := range a.nodes[u].children {
			queue = append(queue, v)
			f := a.nodes[u].fail
			for {
				if next, ok := a.nodes[f].children[c]; ok && next != v {
					a.nodes[v].fail = next
					break
				}
				if f == 0 {
					a.nodes[v].fail = 0
					break
				}
				f = a.nodes[f].fail
			}
			a.nodes[v].out = slices.Concat(a.nodes[v].own, a.nodes[a.nodes[v].fail].out)
		}
	}
	a.built = true
}

// match appends the ids of all contains-patterns occurring in text. Ids may
// repeat when a pattern occurs several times; the caller deduplicates.
func (a *acAutomaton) match(text string, out []int32) []int32 {
	if a.nodes == nil || a.n == 0 {
		return out
	}
	cur := int32(0)
	for i := 0; i < len(text); i++ {
		c := text[i]
		for {
			if next, ok := a.nodes[cur].children[c]; ok {
				cur = next
				break
			}
			if cur == 0 {
				break
			}
			cur = a.nodes[cur].fail
		}
		out = append(out, a.nodes[cur].out...)
	}
	return out
}

// trieNode is a byte trie for starts-with patterns.
type trieNode struct {
	children map[byte]*trieNode
	out      []int32
	n        int
}

func (t *trieNode) add(pattern string, id int32) {
	cur := t
	for i := 0; i < len(pattern); i++ {
		if cur.children == nil {
			cur.children = map[byte]*trieNode{}
		}
		next := cur.children[pattern[i]]
		if next == nil {
			next = &trieNode{}
			cur.children[pattern[i]] = next
		}
		cur = next
	}
	cur.out = append(cur.out, id)
	t.n++
}

// match appends the ids of all starts-with patterns that prefix text.
func (t *trieNode) match(text string, out []int32) []int32 {
	if t.n == 0 {
		return out
	}
	cur := t
	out = append(out, cur.out...)
	for i := 0; i < len(text); i++ {
		if cur.children == nil {
			return out
		}
		next := cur.children[text[i]]
		if next == nil {
			return out
		}
		cur = next
		out = append(out, cur.out...)
	}
	return out
}
