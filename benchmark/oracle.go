package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	xpushstream "repro"
	"repro/internal/naive"
	"repro/internal/xpath"
)

// tally counts attempted and failed operations and keeps the first few
// failure messages for the report.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (t *tally) failf(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// oracle holds, for every pool document, which pool filters match it —
// computed by an in-process Engine over the same filters, one layer simpler
// than the broker it checks.
type oracle struct {
	// match[d] lists the pool filters matching document d, ascending.
	match [][]int32
	// has[d] is the same set as a bitmap for membership tests.
	has [][]uint64
	// engine is the warm engine the sets came from; the ladder reuses it.
	engine *xpushstream.Engine
}

func (o *oracle) matches(doc int, filter int32) bool {
	return o.has[doc][filter>>6]&(1<<(uint(filter)&63)) != 0
}

func buildOracle(p *plan) (*oracle, error) {
	e, err := xpushstream.Compile(p.Filters, xpushstream.Config{})
	if err != nil {
		return nil, fmt.Errorf("oracle compile: %w", err)
	}
	o := &oracle{engine: e, match: make([][]int32, len(p.Docs)), has: make([][]uint64, len(p.Docs))}
	words := (len(p.Filters) + 63) / 64
	for d, doc := range p.Docs {
		o.has[d] = make([]uint64, words)
		err := e.FilterBytes(doc, func(m []int) {
			for _, f := range m {
				o.match[d] = append(o.match[d], int32(f))
				o.has[d][f>>6] |= 1 << (uint(f) & 63)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("oracle filter doc %d: %w", d, err)
		}
	}
	return o, nil
}

// naiveSample is how many pool documents the engine-filter workload checks
// against the tree-walking reference evaluator.
const naiveSample = 64

// checkAgainstNaive compares the oracle's match sets with internal/naive on
// the first naiveSample documents; every differing document is a failed
// operation.
func (o *oracle) checkAgainstNaive(p *plan, t *tally) error {
	filters := make([]*xpath.Filter, len(p.Filters))
	for i, q := range p.Filters {
		f, err := xpath.Parse(q)
		if err != nil {
			return fmt.Errorf("naive parse %q: %w", q, err)
		}
		filters[i] = f
	}
	ref := naive.NewEngine(filters)
	for d := 0; d < naiveSample && d < len(p.Docs); d++ {
		t.attempted.Add(1)
		want, err := ref.FilterDocument(p.Docs[d])
		if err != nil {
			return fmt.Errorf("naive doc %d: %w", d, err)
		}
		got := o.match[d]
		same := len(want) == len(got)
		for i := 0; same && i < len(want); i++ {
			same = want[i] == got[i]
		}
		if !same {
			t.failf("oracle mismatch on doc %d: engine matched %d filters, naive %d", d, len(got), len(want))
		}
	}
	return nil
}
