package xpushstream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xpath"
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
// construction (filter texts, parsed filters, the removed mask) and builds
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
// indexes start at the receiver's NumQueries, and no existing index moves.
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
	return e.withQueries(queries, true)
}

// withQueries is WithQueries with the tier rule optional: a workload
// snapshot rebuilds its recorded layer partition verbatim (tier false).
func (e *Engine) withQueries(queries []string, tier bool) (*Engine, error) {
	filters, err := parseQueries(queries, len(e.queries))
	if err != nil {
		return nil, err
	}
	n := e.derive(len(queries))
	if len(queries) == 0 {
		return n, nil
	}
	n.queries = append(n.queries, queries...)
	n.filters = append(n.filters, filters...)
	n.removed = append(n.removed, make([]bool, len(queries))...)
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
	n.layerOff = append(n.layerOff[:keep], lo)
	n.layers = append(n.layers[:keep], m)
	return n, nil
}

// WithoutQuery returns a new engine that stops reporting filter i. Indexes
// of other filters are unchanged; the filter keeps its slot (a tier merge
// recompiles it along with its neighbours) until the next Consolidated
// drops it. The receiver is not modified; machine layers are shared.
func (e *Engine) WithoutQuery(i int) (*Engine, error) {
	if i < 0 || i >= len(e.removed) {
		return nil, fmt.Errorf("xpushstream: no query %d", i)
	}
	n := e.derive(0)
	n.removed[i] = true
	return n, nil
}

// derive makes a shallow copy of the engine: fresh slice headers (with
// spare capacity for extra more queries) over copied contents, shared
// machine layers and shared stream counters.
func (e *Engine) derive(extra int) *Engine {
	n := &Engine{cfg: e.cfg, ctr: e.ctr}
	n.queries = make([]string, len(e.queries), len(e.queries)+extra)
	copy(n.queries, e.queries)
	n.filters = make([]*xpath.Filter, len(e.filters), len(e.filters)+extra)
	copy(n.filters, e.filters)
	n.layers = append(make([]*core.Machine, 0, len(e.layers)+1), e.layers...)
	n.layerOff = append(make([]int, 0, len(e.layerOff)+1), e.layerOff...)
	n.removed = make([]bool, len(e.removed), len(e.removed)+extra)
	copy(n.removed, e.removed)
	return n
}

// Consolidated returns a fresh engine with all layers recompiled into one
// machine and removed filters physically dropped — the paper's "brute
// force" update path, applied on the operator's schedule rather than per
// insertion, and copy-on-write: the receiver keeps serving its layered
// workload untouched while the caller swaps in the compacted engine. The
// returned mapping translates the receiver's filter indexes to the new
// engine's (-1 for removed filters), so a broker can remap its fan-out
// routing in the same swap.
//
// The consolidated machine starts cold (lazily built states are not
// carried over, and the per-machine counters restart with it); the stream
// byte count and latency history are shared with the receiver, so what the
// receiver filters while the caller prepares the swap is not lost.
func (e *Engine) Consolidated() (*Engine, []int, error) {
	mapping := make([]int, len(e.filters))
	var queries []string
	var filters []*xpath.Filter
	for i := range e.filters {
		if e.removed[i] {
			mapping[i] = -1
			continue
		}
		mapping[i] = len(filters)
		queries = append(queries, e.queries[i])
		filters = append(filters, e.filters[i])
	}
	n := &Engine{cfg: e.cfg, queries: queries, filters: filters, ctr: e.ctr}
	m, err := n.buildMachine(filters)
	if err != nil {
		return nil, nil, err
	}
	n.layers = []*core.Machine{m}
	n.layerOff = []int{0}
	n.removed = make([]bool, len(filters))
	return n, mapping, nil
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

// Queries returns a copy of the workload's filter texts (including removed
// slots, which keep their index).
func (e *Engine) Queries() []string {
	return append([]string(nil), e.queries...)
}

// Removed returns a copy of the removed-filter mask: Removed()[i] reports
// whether filter i has been unregistered with WithoutQuery.
func (e *Engine) Removed() []bool {
	return append([]bool(nil), e.removed...)
}
