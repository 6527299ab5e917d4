package xpushstream

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/workload"
	"repro/internal/xpath"
)

// Copy-on-write workload derivation. A broker serving live traffic cannot
// mutate the engine its publishers are filtering on: match assembly reads
// the engine's slot columns and removed mask. WithQueries and WithoutQuery
// instead derive a new Engine, leaving the receiver's workload untouched, so
// a server can build the next workload generation off to the side and swap
// an atomic pointer — publishers either see the old engine or the new one,
// never a half-updated workload.
//
// Every generation of a lineage runs the one machine Compile (or the last
// Consolidated) built. WithQueries splices its filters into that machine
// (core.Machine.Splice), which keeps its warm tables; the machine numbers
// its filters (oids) in splice order and never reuses one, and each engine
// records the oid of each of its slots, so a generation reports only the
// filters it holds: a filter spliced after it, or by a sibling derived from
// the same receiver, is dropped from its matches. A publish still running on
// the previous generation and one on the new may overlap, and so may
// WithQueries, WithoutQuery and Consolidated with either. The stream byte
// count and latency histogram are one atomic block shared by the whole
// lineage, so Stats on any generation reads what the workload has filtered
// so far and a swap never makes those totals step back.

// WithQueries returns a new engine whose workload is the receiver's plus
// the given filters, spliced into the receiver's machine: the lazily built
// states and every table row the new filters cannot change stay warm
// (DESIGN.md "Splicing a filter into the live machine"). The receiver keeps
// serving its current workload. The new filters' ids start at the
// receiver's NumQueries, and no existing id moves.
//
// The machine is the whole lineage's: every generation runs the filters
// spliced into it until a Consolidated, including those of engines that are
// dropped — the receiver's siblings, or a result that fails Config.Training
// (the splice has landed by then, so the error leaves the filters
// compiled). NumOrphaned counts them.
func (e *Engine) WithQueries(queries []string) (*Engine, error) {
	filters, err := parseQueries(queries, e.nextID)
	if err != nil {
		return nil, err
	}
	n := e.derive()
	if len(queries) == 0 {
		return n, nil
	}
	oid, err := e.m.Splice(filters)
	if err != nil {
		return nil, err
	}
	if e.cfg.Training {
		if err := e.m.Warm(workload.TrainingData(filters, e.cfg.DTD.d)); err != nil {
			return nil, fmt.Errorf("xpushstream: training failed: %w", err)
		}
	}
	n.columns = e.columns.appended(queries, filters, idRange(e.nextID, len(queries)), oidRange(oid, len(queries)))
	n.removed = slices.Concat(n.removed, make([]bool, len(queries)))
	n.nextID += len(queries)
	return n, nil
}

// WithoutQuery returns a new engine that stops reporting the given filter
// ids. No id moves; a masked filter keeps its slot, and stays compiled in
// the machine, until the next Consolidated drops it. An id that is already
// masked or dropped stays so; one never handed out is an error. The
// receiver is not modified; the machine is shared.
func (e *Engine) WithoutQuery(ids ...int) (*Engine, error) {
	for _, id := range ids {
		if id < 0 || id >= e.nextID {
			return nil, fmt.Errorf("xpushstream: no query %d", id)
		}
	}
	n := e.derive()
	n.removed = slices.Clone(n.removed)
	for _, id := range ids {
		if s, ok := slices.BinarySearch(n.ids, id); ok && !n.removed[s] {
			n.removed[s] = true
			n.masked++
		}
	}
	return n, nil
}

// derive makes a shallow copy of the engine that shares everything with it:
// slot columns, the machine and stream counters. No engine writes what
// another reads: WithQueries appends to the columns only past every engine's
// end (columns.appended), and WithoutQuery clones the mask before it sets a
// bit.
func (e *Engine) derive() *Engine {
	return &Engine{columns: e.columns, removed: e.removed, masked: e.masked, nextID: e.nextID, cfg: e.cfg, m: e.m, ctr: e.ctr}
}

// Consolidated returns a fresh engine on a new machine that holds only the
// receiver's live filters — the paper's "brute force" update path, applied
// on the operator's schedule rather than per insertion, and copy-on-write:
// the receiver keeps serving its workload untouched while the caller swaps
// in the compacted engine. It is what reclaims masked filters, and the
// filters siblings spliced into the shared machine. Every filter keeps its
// id, and NumQueries stays where it was, so no dropped id comes back. The
// returned mapping is indexed by id: mapping[id] is id for a filter the new
// engine reports and -1 for every other id.
//
// The new machine starts cold (lazily built states are not carried over,
// and the per-machine counters restart with it); the stream byte count and
// latency history are shared with the receiver, so what the receiver
// filters while the caller prepares the swap is not lost.
func (e *Engine) Consolidated() (*Engine, []int, error) {
	mapping := make([]int, e.nextID)
	for i := range mapping {
		mapping[i] = -1
	}
	var queries []string
	var filters []*xpath.Filter
	var ids []int
	for s, id := range e.ids {
		if !e.removed[s] {
			mapping[id] = id
			queries = append(queries, e.queries[s])
			filters = append(filters, e.filters[s])
			ids = append(ids, id)
		}
	}
	n := &Engine{cfg: e.cfg, nextID: e.nextID, ctr: e.ctr}
	if err := n.build(queries, filters, ids); err != nil {
		return nil, nil, err
	}
	return n, mapping, nil
}

// columns are an engine's slots, in id order: slot s holds filter ids[s],
// with its text and parsed form, which the machine numbers oids[s]. ids
// ascend, so an id's slot is a binary search away, and oids ascend too but
// may skip the oids of filters other generations spliced.
//
// The four arrays are shared along a lineage, and claimed counts how much
// of their backing arrays some engine has filled: the engine whose columns
// end where the claim does may append in place, so a chain of derivations
// costs amortized O(1) per filter, and any other (a sibling's receiver)
// copies, to arrays of the size it needs.
type columns struct {
	queries []string
	filters []*xpath.Filter
	ids     []int
	oids    []int32
	claimed *atomic.Int64
}

// appended returns the columns plus the given slots.
func (c columns) appended(queries []string, filters []*xpath.Filter, ids []int, oids []int32) columns {
	n, k := len(c.ids), len(ids)
	room := min(cap(c.queries), cap(c.filters), cap(c.ids), cap(c.oids)) - n
	if c.claimed == nil || room < k || !c.claimed.CompareAndSwap(int64(n), int64(n+k)) {
		size := n + k
		if c.claimed == nil || c.claimed.Load() == int64(n) {
			size += size/4 + 8 // the tip of a chain: room to grow in place
		}
		c = columns{
			queries: append(make([]string, 0, size), c.queries...),
			filters: append(make([]*xpath.Filter, 0, size), c.filters...),
			ids:     append(make([]int, 0, size), c.ids...),
			oids:    append(make([]int32, 0, size), c.oids...),
			claimed: new(atomic.Int64),
		}
		c.claimed.Store(int64(n + k))
	}
	return columns{append(c.queries, queries...), append(c.filters, filters...), append(c.ids, ids...), append(c.oids, oids...), c.claimed}
}

// ApproxMemoryBytes estimates the memory held by the engine's machine
// (state arrays, transition tables, intern indexes), which every generation
// of the lineage shares.
func (e *Engine) ApproxMemoryBytes() int64 { return e.m.ApproxMemoryBytes() }

// IDs returns the ids of the filters the engine reports, ascending.
func (e *Engine) IDs() []int { return e.idsWhere(false) }

// MaskedIDs returns the ids WithoutQuery has masked and Consolidated has not
// dropped yet, ascending.
func (e *Engine) MaskedIDs() []int { return e.idsWhere(true) }

// NumMasked reports how many masked filters are still compiled in.
func (e *Engine) NumMasked() int { return e.masked }

// NumOrphaned reports how many filters are compiled into the engine's
// machine without a slot in it: spliced by another engine of the lineage (a
// sibling, a later generation, or a WithQueries whose training failed).
// Every document runs them, and only Consolidated drops them; a workload
// snapshot of an engine with orphans leaves the machine state out.
func (e *Engine) NumOrphaned() int { return e.m.NumQueries() - len(e.oids) }

func (e *Engine) idsWhere(masked bool) []int {
	var out []int
	for s, id := range e.ids {
		if e.removed[s] == masked {
			out = append(out, id)
		}
	}
	return out
}

// appendOwned appends to dst the ids of the engine's unmasked filters among
// a document's matching machine oids, res (ascending). oids and ids both
// ascend with the slots, so dst stays sorted. An oid the engine holds no
// slot for — spliced after this generation, or by a sibling — is dropped.
// An engine whose oids (ids) are consecutive, as a linear lineage's are
// until a Consolidated drops one, finds a slot (id) by subtraction.
func (e *Engine) appendOwned(dst []int, res []int32) []int {
	n := len(e.oids)
	if n == 0 || len(res) == 0 {
		return dst
	}
	lo, delta := e.oids[0], e.ids[0]
	denseOids := int(e.oids[n-1]-lo) == n-1
	denseIDs := e.ids[n-1]-delta == n-1
	for _, o := range res {
		s := int(o - lo)
		if !denseOids {
			var ok bool
			if s, ok = slices.BinarySearch(e.oids, o); !ok && s < n {
				s = -1
			}
		}
		switch {
		case s >= n:
			return dst
		case s < 0 || e.removed[s]:
		case denseIDs:
			dst = append(dst, s+delta)
		default:
			dst = append(dst, e.ids[s])
		}
	}
	return dst
}
