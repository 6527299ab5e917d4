package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary.
type span struct {
	Name       string
	Start, End time.Duration // harness clock
	ID, Parent int32         // Parent 0 = root
	Doc        int64         // sequence tag or pool index of the document
}

// spanLog keeps spans in memory until the run ends. It is bounded: past
// limit, spans are counted but not kept, so a long run cannot grow the heap
// it is measuring.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
}

func newSpanLog(limit int) *spanLog { return &spanLog{limit: limit} }

// add records one finished span and returns its id for children to name.
func (l *spanLog) add(name string, start, end time.Duration, parent int32, doc int64) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.limit {
		l.dropped++
		return 0
	}
	id := int32(len(l.spans) + 1)
	l.spans = append(l.spans, span{name, start, end, id, parent, doc})
	return id
}

// selfTime is one span name's totals: a layer's self time is its spans'
// duration minus the part of it their child spans cover.
type selfTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates the log by span name.
func (l *spanLog) selfTimes() []selfTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range l.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += dur
		st.Self += dur - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// writeChrome writes the log in Chrome trace-event format (load it at
// ui.perfetto.dev): one complete event per span, roots on lane 1 and
// children on lane 2 so overlapping documents stay legible.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	for i, s := range l.spans {
		if i > 0 {
			w.WriteString(",")
		}
		lane := 1
		if s.Parent != 0 {
			lane = 2
		}
		enc.Encode(map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": lane,
			"ts":   float64(s.Start) / float64(time.Microsecond),
			"dur":  float64(s.End-s.Start) / float64(time.Microsecond),
			"args": map[string]any{"id": s.ID, "parent": s.Parent, "doc": s.Doc},
		})
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
