package xpushstream

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// Copy-on-write workload derivation. A broker serving live traffic cannot
// mutate the engine its publishers are filtering on: the driver iterates
// the layer list on every event and match assembly reads the removed mask.
// WithQueries and WithoutQuery instead derive a new Engine that SHARES the
// receiver's warm machine layers (the lazily built state tables are the
// expensive part) while leaving the receiver completely untouched, so a
// server can build the next workload generation off to the side and swap an
// atomic pointer — publishers either see the old engine or the new one,
// never a half-updated workload.
//
// The receiver and the derived engine reference the same machine layers, and
// a machine serves any number of concurrent documents, each on its own
// cursor (core.Machine): a publish still running on the previous generation
// and one on the new may overlap, and so may WithQueries, WithoutQuery and
// Consolidated with either — deriving reads only what no engine writes after
// construction (filter texts, parsed filters, ids, the removed mask) and builds
// fresh machines. Every layer above the base is guarded by the base
// machine's lock (core.Machine.StackOn): every engine that runs a tail layer
// runs the base it was stacked on too. The stream byte count and latency
// histogram are one atomic block shared by the whole lineage, so Stats on
// any generation reads what the workload has filtered so far and a swap
// never makes those totals step back.

// tierFanout is k of the size-tiered merge rule: a trailing layer is merged
// into the one before it while it holds at least 1/k of that layer's
// filters. 2 would be the binary-counter rule; 4 trades a little more
// recompiling for fewer layers, and EXPERIMENTS.md has the numbers that
// chose it.
const tierFanout = 4

// WithQueries returns a new engine whose workload is the receiver's plus
// the given filters, compiled as an additional machine layer (the paper's
// layered insertion path, Sec. 8). The receiver is not modified and keeps
// serving its current workload; the base layer stays warm. The new filters'
// ids start at the receiver's NumQueries, and no existing id moves.
//
// Depth is bounded by a size-tiered merge of the layers above the base: the
// new filters absorb the trailing layer while they hold at least
// 1/tierFanout of its filters, repeatedly, and the absorbed range is
// compiled as one machine from the already-parsed filters. Every pair of
// adjacent tail layers therefore differs in size by more than tierFanout,
// so NumLayers is at most log_tierFanout(NumQueries) + 2, each filter is
// recompiled O(log n) times over a run of insertions, and every merge is
// small. The base machine (layer 0) is never recompiled here — that is
// Consolidated's job, on the caller's schedule.
func (e *Engine) WithQueries(queries []string) (*Engine, error) {
	return e.withQueries(queries, idRange(e.nextID, len(queries)), true)
}

// withQueries is WithQueries with the ids and the tier rule chosen by the
// caller: a workload snapshot rebuilds its recorded ids and layer partition
// verbatim (tier false). ids ascend from above every id the receiver holds.
func (e *Engine) withQueries(queries []string, ids []int, tier bool) (*Engine, error) {
	filters, err := parseQueries(queries, e.nextID)
	if err != nil {
		return nil, err
	}
	n := e.derive()
	if len(queries) == 0 {
		return n, nil
	}
	n.queries = slices.Concat(n.queries, queries)
	n.filters = slices.Concat(n.filters, filters)
	n.ids = slices.Concat(n.ids, ids)
	n.removed = slices.Concat(n.removed, make([]bool, len(queries)))
	n.nextID = ids[len(ids)-1] + 1
	// The new layer covers filters[lo:] and replaces layers[keep:].
	keep, lo := len(e.layers), len(e.queries)
	for tier && keep > 1 && (len(n.filters)-lo)*tierFanout >= lo-e.layerOff[keep-1] {
		keep--
		lo = e.layerOff[keep]
	}
	m, err := e.buildMachine(n.filters[lo:])
	if err != nil {
		return nil, err
	}
	m.StackOn(e.layers[0])
	n.layerOff = append(n.layerOff[:keep:keep], lo)
	n.layers = append(n.layers[:keep:keep], m)
	return n, nil
}

// WithoutQuery returns a new engine that stops reporting the given filter
// ids. No id moves; a masked filter keeps its slot (a tier merge recompiles
// it along with its neighbours) until the next Consolidated drops it. An id
// that is already masked or dropped stays so; one never handed out is an
// error. The receiver is not modified; machine layers are shared.
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
// slot columns, machine layers and stream counters. No engine writes a slice
// it may share: WithQueries concatenates the columns, and replaces the tail
// of the layer list, into new arrays, and WithoutQuery clones the mask
// before it sets a bit. A derivation therefore copies only the columns it
// changes.
func (e *Engine) derive() *Engine {
	return &Engine{queries: e.queries, filters: e.filters, ids: e.ids, removed: e.removed,
		masked: e.masked, nextID: e.nextID, cfg: e.cfg, layers: e.layers, layerOff: e.layerOff, ctr: e.ctr}
}

// Consolidated returns a fresh engine with all layers recompiled into one
// machine and masked filters physically dropped — the paper's "brute
// force" update path, applied on the operator's schedule rather than per
// insertion, and copy-on-write: the receiver keeps serving its layered
// workload untouched while the caller swaps in the compacted engine. Every
// filter keeps its id, and NumQueries stays where it was, so no dropped id
// comes back. The returned mapping is indexed by id: mapping[id] is id for
// a filter the new engine reports and -1 for every other id.
//
// The consolidated machine starts cold (lazily built states are not
// carried over, and the per-machine counters restart with it); the stream
// byte count and latency history are shared with the receiver, so what the
// receiver filters while the caller prepares the swap is not lost.
func (e *Engine) Consolidated() (*Engine, []int, error) {
	mapping := make([]int, e.nextID)
	for i := range mapping {
		mapping[i] = -1
	}
	n := &Engine{cfg: e.cfg, nextID: e.nextID, ctr: e.ctr}
	for s, id := range e.ids {
		if !e.removed[s] {
			mapping[id] = id
			n.queries = append(n.queries, e.queries[s])
			n.filters = append(n.filters, e.filters[s])
			n.ids = append(n.ids, id)
		}
	}
	m, err := n.buildMachine(n.filters)
	if err != nil {
		return nil, nil, err
	}
	n.layers = []*core.Machine{m}
	n.layerOff = []int{0}
	n.removed = make([]bool, len(n.ids))
	return n, mapping, nil
}

// layerSlots returns the slot range [lo, hi) of layer li.
func (e *Engine) layerSlots(li int) (lo, hi int) {
	if li+1 < len(e.layerOff) {
		return e.layerOff[li], e.layerOff[li+1]
	}
	return e.layerOff[li], len(e.ids)
}

// TailQueries reports how many filter slots sit in the layers above the
// base machine — what WithQueries has added since the last Consolidated.
func (e *Engine) TailQueries() int {
	if len(e.layers) < 2 {
		return 0
	}
	return len(e.filters) - e.layerOff[1]
}

// ApproxMemoryBytes estimates the memory held by the engine's machine
// layers (state arrays, transition tables, intern indexes). Layered
// engines derived from a shared base double-count nothing: each layer is
// one machine, counted once.
func (e *Engine) ApproxMemoryBytes() int64 {
	var b int64
	for _, m := range e.layers {
		b += m.ApproxMemoryBytes()
	}
	return b
}

// IDs returns the ids of the filters the engine reports, ascending.
func (e *Engine) IDs() []int { return e.idsWhere(false) }

// MaskedIDs returns the ids WithoutQuery has masked and Consolidated has not
// dropped yet, ascending.
func (e *Engine) MaskedIDs() []int { return e.idsWhere(true) }

// NumMasked reports how many masked filters are still compiled in.
func (e *Engine) NumMasked() int { return e.masked }

func (e *Engine) idsWhere(masked bool) []int {
	var out []int
	for s, id := range e.ids {
		if e.removed[s] == masked {
			out = append(out, id)
		}
	}
	return out
}
