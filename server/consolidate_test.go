package server_test

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"
	"time"

	"repro/server"
)

// stormSnapshot is the slice of /debug/machine these tests care about.
type stormSnapshot struct {
	Queries        int   `json:"queries"`
	Layers         int   `json:"layers"`
	TailFilters    int   `json:"tail_filters"`
	RemovedSlots   int   `json:"removed_slots"`
	Consolidations int64 `json:"consolidations"`
	Compacting     bool  `json:"compaction_in_progress"`
	MemoryBytes    int64 `json:"memory_bytes"`
}

func machineSnapshot(t testing.TB, srv *server.Server) stormSnapshot {
	t.Helper()
	var snap stormSnapshot
	getJSON(t, "http://"+srv.DebugAddr()+"/debug/machine", &snap)
	return snap
}

// checkDepthBound holds one snapshot to the tier rule's invariant: adjacent
// tail layers differ in size by more than 2x, so a tail of n filters has at
// most log2(n)+1 layers, plus the base.
func checkDepthBound(t testing.TB, snap stormSnapshot) {
	t.Helper()
	if bound := 1 + bits.Len(uint(snap.TailFilters)); snap.Layers > bound {
		t.Errorf("%d layers over a tail of %d filters, bound %d", snap.Layers, snap.TailFilters, bound)
	}
}

// medianPublishLatency publishes the doc n times and returns the median
// round-trip — median rather than mean so one scheduler hiccup cannot skew
// the storm comparison.
func medianPublishLatency(t *testing.T, pub interface {
	Publish([]byte) (int, error)
}, doc []byte, n int) time.Duration {
	t.Helper()
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := pub.Publish(doc); err != nil {
			t.Fatalf("publish: %v", err)
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2]
}

// TestConsolidationStormKeepsMachineFlat is the regression test for layer
// accumulation: a long subscribe/unsubscribe storm of unique filters adds a
// tail slot per subscribe and a removed slot per unsubscribe. With no knob
// set, the tier rule must keep the depth logarithmic in the tail at every
// sample, and the background compaction must keep the tail, the removed
// slots, memory and median publish latency in the same regime at the end of
// the storm as a third of the way in.
func TestConsolidationStormKeepsMachineFlat(t *testing.T) {
	srv := startServer(t, server.Config{DebugAddr: "127.0.0.1:0"})
	cn := dialSub(t, srv.Addr(), newCollector())
	pub := dialSub(t, srv.Addr(), nil)
	doc := []byte("<storm><q>0</q></storm>")

	const window = 4
	var active []uint64
	subscribe := func(i int) {
		id, err := cn.Subscribe(fmt.Sprintf("/storm[q=%d]", i))
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		active = append(active, id)
		if len(active) > window {
			if err := cn.Unsubscribe(active[0]); err != nil {
				t.Fatalf("unsubscribe: %v", err)
			}
			active = active[1:]
		}
	}
	// The storm: 600 unique-filter subscribe/unsubscribe cycles. Unshared
	// filters defeat dedup on purpose — every cycle costs a real tail slot
	// plus a removed slot, so only compaction keeps the machine small. The
	// bounds leave room for what a storm at full speed adds while one
	// compaction is in flight; a machine that is not compacted blows through
	// them by the middle of the storm.
	const storm, slack = 600, 192
	var early time.Duration
	var slotMem, lateMem int64
	for i := 0; i < storm; i++ {
		subscribe(i)
		if i%10 != 9 {
			continue
		}
		snap := machineSnapshot(t, srv)
		checkDepthBound(t, snap)
		if snap.Queries > slack || snap.RemovedSlots > slack {
			t.Fatalf("cycle %d: %d slots, %d removed; the storm is outrunning compaction", i, snap.Queries, snap.RemovedSlots)
		}
		switch {
		case i < storm/3:
			slotMem = max(slotMem, snap.MemoryBytes/int64(max(snap.Queries, 1)))
		case i >= 2*storm/3:
			lateMem = max(lateMem, snap.MemoryBytes)
		}
		if i == storm/3-1 {
			early = medianPublishLatency(t, pub, doc, 30)
		}
	}
	late := medianPublishLatency(t, pub, doc, 30)
	if snap := machineSnapshot(t, srv); snap.Consolidations == 0 {
		t.Fatal("storm never triggered a compaction")
	}
	// Memory flat: the peak over the last third of the storm fits in what the
	// slack's slots hold at the first third's bytes per slot. The bound is in
	// slots because a sample that lands mid-compaction legitimately holds
	// twice the slots of one that does not; an uncompacted machine reaches
	// ~storm slots, over three times the bound.
	if bound := slotMem * slack; lateMem > bound {
		t.Errorf("peak memory %d bytes late in the storm exceeds %d slots at %d bytes each; not flat", lateMem, slack, slotMem)
	}
	// Latency flat: generous factor — loopback noise is real — but far below
	// what 400 more layers would cost.
	if late > 25*early {
		t.Errorf("median publish latency grew %v -> %v across the storm; not flat", early, late)
	}
}
