package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// NodeTraces is one node's /debug/traces payload tagged with the node's
// address, the merge exporter's per-hop input.
type NodeTraces struct {
	Node   string
	Traces []JSONTrace
}

// MergeChrome stitches a gate's traces and the node-side traces that
// carried the same ids into one Chrome trace_event document: each gate
// trace becomes one process (pid = trace id) whose first rows are the
// gate's own spans (ingress, per-node fan-out, ack aggregation) and whose
// remaining rows are each matching node trace's spans (wal_append, filter,
// queue_wait, deliver_write), wall-clock aligned against the gate's
// timeline and labeled with the node address. A node trace matches when it
// is Remote (its id was assigned upstream) and its id equals the gate
// trace's — BeginRemote guarantees both on the propagation path.
//
// Alignment uses each process's wall clock, so cross-machine skew shifts
// node rows by the clock offset; span durations are unaffected (they are
// monotonic on each hop). With no node traces it renders the given traces
// alone, which is how WriteChrome encodes a process's own traces.
func MergeChrome(w io.Writer, gate []JSONTrace, nodes []NodeTraces) error {
	// Index node traces by id, keeping the node ordering deterministic.
	type hop struct {
		node  string
		trace *JSONTrace
	}
	byID := make(map[uint64][]hop)
	for ni := range nodes {
		for ti := range nodes[ni].Traces {
			t := &nodes[ni].Traces[ti]
			if !t.Remote {
				continue
			}
			byID[t.ID] = append(byID[t.ID], hop{node: nodes[ni].Node, trace: t})
		}
	}

	var base time.Time
	for i := range gate {
		if base.IsZero() || gate[i].Wall.Before(base) {
			base = gate[i].Wall
		}
	}

	ew := &eventWriter{w: w}
	if err := ew.open(); err != nil {
		return err
	}
	for gi := range gate {
		g := &gate[gi]
		off := g.Wall.Sub(base).Nanoseconds()
		maxTrack := int32(0)
		for si := range g.Spans {
			s := &g.Spans[si]
			if s.Track > maxTrack {
				maxTrack = s.Track
			}
			if err := ew.span(g.ID, off, s, s.Track+1, s.Name == g.Kind && s.Parent == NoSpan); err != nil {
				return err
			}
		}
		hops := byID[g.ID]
		if len(g.Spans) > 0 {
			if err := ew.meta("process_name", g.ID, 0, fmt.Sprintf("%s trace %d", g.Kind, g.ID)); err != nil {
				return err
			}
			// The gate's row is named only where node rows follow it.
			if len(hops) > 0 {
				if err := ew.meta("thread_name", g.ID, 1, "gate"); err != nil {
					return err
				}
			}
		}
		tidBase := maxTrack + 1
		sort.SliceStable(hops, func(i, j int) bool { return hops[i].node < hops[j].node })
		for _, h := range hops {
			t := h.trace
			hopOff := t.Wall.Sub(base).Nanoseconds()
			hopMax := int32(0)
			for si := range t.Spans {
				s := &t.Spans[si]
				if s.Track > hopMax {
					hopMax = s.Track
				}
				if err := ew.span(g.ID, hopOff, s, tidBase+s.Track+1, false); err != nil {
					return err
				}
			}
			if len(t.Spans) > 0 {
				if err := ew.meta("thread_name", g.ID, int64(tidBase)+1, fmt.Sprintf("node %s (%s)", h.node, t.Kind)); err != nil {
					return err
				}
			}
			tidBase += hopMax + 1
		}
	}
	return ew.close()
}

// eventWriter emits a Chrome trace_event JSON array one event at a time.
type eventWriter struct {
	w     io.Writer
	wrote bool
}

func (e *eventWriter) open() error {
	_, err := io.WriteString(e.w, "[\n")
	return err
}

func (e *eventWriter) emit(ev map[string]any) error {
	if e.wrote {
		if _, err := io.WriteString(e.w, ",\n"); err != nil {
			return err
		}
	}
	e.wrote = true
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = e.w.Write(b)
	return err
}

func (e *eventWriter) span(pid uint64, offNS int64, s *JSONSpan, tid int32, root bool) error {
	args := map[string]any{"trace_id": pid}
	for _, a := range s.Attrs {
		args[a.Key] = a.Val
	}
	cat := "span"
	if root {
		cat = "root"
	}
	return e.emit(map[string]any{
		"name": s.Name,
		"ph":   "X",
		"ts":   float64(offNS+s.StartNS) / 1e3,
		"dur":  float64(s.DurNS) / 1e3,
		"pid":  pid,
		"tid":  tid,
		"cat":  cat,
		"args": args,
	})
}

func (e *eventWriter) meta(kind string, pid uint64, tid int64, name string) error {
	ev := map[string]any{
		"name": kind, "ph": "M", "pid": pid,
		"args": map[string]any{"name": name},
	}
	if kind == "thread_name" {
		ev["tid"] = tid
	}
	return e.emit(ev)
}

func (e *eventWriter) close() error {
	_, err := io.WriteString(e.w, "\n]\n")
	return err
}
