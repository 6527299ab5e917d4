// Package perquery is the XFilter-style baseline: one finite machine per
// XPath filter, run independently over the stream. It shares nothing — no
// common navigation, no common predicates — which is exactly the strawman
// the paper's introduction argues cannot scale ("a naive approach to query
// evaluation, which computes each query separately, obviously doesn't
// scale"). Each per-query machine is a single-filter XPush machine, so the
// per-event work is O(#queries) instead of O(1).
package perquery

import (
	"repro/internal/afa"
	"repro/internal/core"
	"repro/internal/sax"
	"repro/internal/xpath"
)

// Engine evaluates each filter with its own machine.
type Engine struct {
	machines []*core.Machine
	hits     []bool
	scan     sax.ByteScanner
	events   sax.Collector
}

// NewEngine compiles one machine per filter.
func NewEngine(filters []*xpath.Filter) (*Engine, error) {
	e := &Engine{
		machines: make([]*core.Machine, len(filters)),
		hits:     make([]bool, len(filters)),
	}
	for i, f := range filters {
		a, err := afa.Compile([]*xpath.Filter{f})
		if err != nil {
			return nil, err
		}
		m := core.New(a, core.Options{})
		i := i
		m.OnDocument = func(matches []int32) {
			if len(matches) > 0 {
				e.hits[i] = true
			}
		}
		e.machines[i] = m
	}
	return e, nil
}

// FilterDocument parses the document once, with the XPush machine's own
// ByteScanner, and drives the events through every machine, returning the
// sorted oids of matching filters. Sharing the parse is a concession to the
// baseline: the measured gap to the XPush machine is purely evaluation work.
func (e *Engine) FilterDocument(data []byte) ([]int32, error) {
	e.events.Reset()
	if err := e.scan.Parse(data, &e.events); err != nil {
		return nil, err
	}
	return e.FilterEvents(e.events.Events)
}

// FilterEvents drives pre-parsed events (one or more documents) through
// every machine; a filter is reported if it matched any document.
func (e *Engine) FilterEvents(events []sax.Event) ([]int32, error) {
	var out []int32
	for i, m := range e.machines {
		e.hits[i] = false
		sax.Drive(events, m)
		if e.hits[i] {
			out = append(out, int32(i))
		}
	}
	return out, nil
}

// NumQueries returns the workload size.
func (e *Engine) NumQueries() int { return len(e.machines) }
