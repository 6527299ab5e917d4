package server_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	xpushstream "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/workload"
	"repro/internal/xpath"
	"repro/server"
)

// distinctFilters draws n canonically distinct filters over the protein
// dataset, in canonical form (the broker folds equivalent boot filters onto
// one slot, so only distinct ones make the oracle's indexes line up).
func distinctFilters(t testing.TB, seed int64, n int) []string {
	t.Helper()
	pool := workload.Generate(datagen.ProteinLike(), workload.Params{
		Seed: seed, NumQueries: 2 * n, MeanPreds: 2, NestedPredProb: 0.2,
		WildcardProb: 0.1, DescendantProb: 0.2, OrProb: 0.1,
	})
	seen := map[string]bool{}
	var out []string
	for _, f := range pool {
		cq, err := xpath.Canonicalize(f.String())
		if err != nil {
			t.Fatal(err)
		}
		if !seen[cq] {
			seen[cq] = true
			out = append(out, cq)
		}
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("only %d distinct filters in a draw of %d", len(out), 2*n)
	return nil
}

func probeDoc(i int) []byte { return []byte(fmt.Sprintf("<probe><q>%d</q></probe>", i)) }

// TestSubscribeNeverWaitsOnCompaction: against 2000 preloaded filters, a
// subscribe/unsubscribe storm of unique filters keeps the background
// compaction busy while a pipelined publisher saturates the filter path.
// Every SUBSCRIBE round trip must stay far below the recompiles the storm
// ran (the stall the inline recompile used to put on that path), timed by
// the server's compile phase under the same load, and
// the broker must stay exact across every swap: each pipelined ack and each
// delivery on a rider of the preloaded filters equals a fresh-Compile
// oracle's answer, and each storm filter — including the ones added or
// released while a compaction was in flight — matches its probe document
// exactly while it is subscribed and never after.
func TestSubscribeNeverWaitsOnCompaction(t *testing.T) {
	const (
		nFilters = 2000
		nRiders  = 20
		window   = 8
	)
	filters := distinctFilters(t, 19, nFilters)
	oracle, err := xpushstream.Compile(filters, xpushstream.Config{})
	if err != nil {
		t.Fatal(err)
	}

	gen := datagen.NewGenerator(datagen.ProteinLike(), 1900)
	docs := make([][]byte, 24)
	wantAck := make([]int, len(docs))
	// wantRider[d][r] reports whether rider r's filter matches document d.
	wantRider := make([][nRiders]bool, len(docs))
	for d := range docs {
		docs[d] = gen.GenerateDocument()
		m, err := oracle.FilterDocument(docs[d])
		if err != nil {
			t.Fatal(err)
		}
		wantAck[d] = len(m)
		for _, idx := range m {
			if idx < nRiders {
				wantRider[d][idx] = true
			}
		}
	}
	// No preloaded filter may fire on a probe document, so a probe's ack
	// counts storm filters only.
	if m, err := oracle.FilterDocument(probeDoc(7)); err != nil || len(m) != 0 {
		t.Fatalf("preloaded filters match the probe document: %v, %v", m, err)
	}

	srv := startServer(t, server.Config{
		DebugAddr:      "127.0.0.1:0",
		MetricsAddr:    "127.0.0.1:0",
		Policy:         server.Block,
		InitialQueries: filters,
	})

	// Riders: one subscription on each of the first nRiders preloaded
	// filters (dedup hits, so they ride the pinned machine queries).
	var riderMu sync.Mutex
	riderGot := map[string][]uint64{} // document -> filter ids delivered with it
	rider, err := client.Dial(srv.Addr(), client.Options{Timeout: 10 * time.Second, OnDeliver: func(d client.Delivery) {
		riderMu.Lock()
		riderGot[string(d.Doc)] = append(riderGot[string(d.Doc)], d.Filters...)
		riderMu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rider.Close()
	riderIDs := make([]uint64, nRiders)
	for r := range riderIDs {
		if riderIDs[r], err = rider.Subscribe(filters[r]); err != nil {
			t.Fatal(err)
		}
	}

	// The pipelined publisher: cycles the document pool until told to stop,
	// checking every ack against the oracle.
	pubConn := dialSub(t, srv.Addr(), nil)
	var badAcks, published atomic.Int64
	pipe, err := pubConn.PublishPipelined(16, func(r client.PublishResult) {
		if r.Err != nil || r.Matches != wantAck[(r.Seq-1)%uint64(len(docs))] {
			badAcks.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stopPub := make(chan struct{})
	pubDone := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stopPub:
				pubDone <- pipe.Close()
				return
			default:
			}
			if _, err := pipe.Publish(docs[i%len(docs)]); err != nil {
				pubDone <- err
				return
			}
			published.Add(1)
		}
	}()

	// The storm, on this goroutine: it alone changes the storm filters, so
	// what each synchronous probe must report is known exactly.
	stormCol := newCollector()
	storm := dialSub(t, srv.Addr(), stormCol)
	prober := dialSub(t, srv.Addr(), nil)
	probes := 0
	probe := func(i int, want int, when string) {
		t.Helper()
		probes++
		if n, err := prober.Publish(probeDoc(i)); err != nil || n != want {
			t.Fatalf("probe %d %s: matched %d (err %v), want %d", i, when, n, err, want)
		}
	}
	// The engine's stream totals belong to the workload, not to one
	// generation of it: no swap may make them step back.
	var seen xpushstream.Stats
	checkTotalsMonotone := func() {
		t.Helper()
		st := srv.Stats()
		if st.Bytes < seen.Bytes || st.FilterLatency.Count < seen.FilterLatency.Count {
			t.Fatalf("stream totals stepped back across a swap: bytes %d -> %d, documents timed %d -> %d",
				seen.Bytes, st.Bytes, seen.FilterLatency.Count, st.FilterLatency.Count)
		}
		seen = st
	}
	type live struct {
		i  int
		id uint64
	}
	var active []live
	var rtts []time.Duration
	// overlapped reports whether the operation between the two snapshots ran
	// while a compaction was in flight that had not swapped by its end.
	overlapped := func(before, after stormSnapshot) bool {
		return before.Compacting && after.Consolidations == before.Consolidations
	}
	addedInFlight, releasedInFlight, ops := 0, 0, 0
	deadline := time.Now().Add(90 * time.Second)
	for {
		snap := machineSnapshot(t, srv)
		if snap.Consolidations >= 2 && addedInFlight > 0 && releasedInFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d storm cycles: %d compactions, %d adds and %d releases overlapping one",
				ops, snap.Consolidations, addedInFlight, releasedInFlight)
		}
		checkOneMachine(t, snap)
		checkTotalsMonotone()
		i := ops
		ops++
		t0 := time.Now()
		id, err := storm.Subscribe(fmt.Sprintf("/probe[q=%d]", i))
		rtts = append(rtts, time.Since(t0))
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		if overlapped(snap, machineSnapshot(t, srv)) {
			addedInFlight++
		}
		active = append(active, live{i, id})
		probe(i, 1, "after subscribe")
		if len(active) > window {
			old := active[0]
			active = active[1:]
			snap = machineSnapshot(t, srv)
			if err := storm.Unsubscribe(old.id); err != nil {
				t.Fatalf("unsubscribe %d: %v", old.i, err)
			}
			if overlapped(snap, machineSnapshot(t, srv)) {
				releasedInFlight++
			}
			probe(old.i, 0, "after unsubscribe")
		}
	}
	close(stopPub)
	if err := <-pubDone; err != nil {
		t.Fatalf("pipelined publisher: %v", err)
	}

	// Let the last compaction land, then walk every storm filter once more:
	// whatever was added or released during a compaction must have been
	// carried across its swap.
	waitFor(t, "compaction to settle", func() bool { return !machineSnapshot(t, srv).Compacting })
	isLive := map[int]uint64{}
	for _, a := range active {
		isLive[a.i] = a.id
	}
	for i := 0; i < ops; i++ {
		want := 0
		if _, ok := isLive[i]; ok {
			want = 1
		}
		probe(i, want, "after the storm")
	}
	// Each live storm subscription saw its probe twice, each released one
	// once (while it was live), and nothing else.
	waitFor(t, "probe deliveries", func() bool { return stormCol.count() == ops+len(active) })
	for _, a := range active {
		if n := stormCol.idCount(a.id); n != 2 {
			t.Errorf("live storm filter %d: %d deliveries, want 2", a.i, n)
		}
	}

	if n := badAcks.Load(); n != 0 {
		t.Errorf("%d of %d pipelined acks disagree with the oracle", n, published.Load())
	}
	// Every document filtered on any generation is in the totals, including
	// those filtered on a pinned generation while its successor was built.
	if got, want := srv.Stats().FilterLatency.Count, uint64(published.Load())+uint64(probes); got != want {
		t.Errorf("filter latency histogram holds %d documents, %d were published", got, want)
	}
	// Rider deliveries: document d was published once per full cycle plus
	// once more when d is below the remainder; every publish of it must have
	// carried exactly the matching riders' ids.
	total := published.Load()
	timesPublished := func(d int) int {
		times := int(total / int64(len(docs)))
		if int64(d) < total%int64(len(docs)) {
			times++
		}
		return times
	}
	wantPairs := 0
	for d := range docs {
		for r := 0; r < nRiders; r++ {
			if wantRider[d][r] {
				wantPairs += timesPublished(d)
			}
		}
	}
	waitFor(t, "rider deliveries", func() bool {
		riderMu.Lock()
		defer riderMu.Unlock()
		got := 0
		for _, ids := range riderGot {
			got += len(ids)
		}
		return got >= wantPairs
	})
	riderMu.Lock()
	for d := range docs {
		perID := map[uint64]int{}
		for _, id := range riderGot[string(docs[d])] {
			perID[id]++
		}
		for r, id := range riderIDs {
			want := 0
			if wantRider[d][r] {
				want = timesPublished(d)
			}
			if perID[id] != want {
				t.Errorf("document %d, rider %d: %d deliveries, want %d", d, r, perID[id], want)
			}
		}
	}
	riderMu.Unlock()

	// The reference is the mean recompile the storm's compactions ran, on
	// the same host under the same load as the SUBSCRIBEs.
	const compile = `xpushserve_consolidation_phase_duration_seconds_%s{phase="compile"} `
	text := scrape(t, srv.MetricsAddr())
	compiles := labeledValue(t, text, fmt.Sprintf(compile, "count"))
	recompile := time.Duration(labeledValue(t, text, fmt.Sprintf(compile, "sum")) / compiles * float64(time.Second))
	// A compaction is a recompile and a swap: those are the only phases.
	const phases = "xpushserve_consolidation_phase_duration_seconds_count{"
	var labels []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, phases); ok {
			labels = append(labels, rest[:strings.IndexByte(rest, '}')])
		}
	}
	if want := []string{`phase="compile"`, `phase="swap"`}; !slices.Equal(labels, want) {
		t.Errorf("compaction phases %v, want %v", labels, want)
	}
	if swaps := metricValue(t, text, "xpushserve_consolidations_total"); swaps == 0 {
		t.Error("xpushserve_consolidations_total counted no swap")
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	med, worst := rtts[len(rtts)/2], rtts[len(rtts)-1]
	t.Logf("%d storm cycles, %d documents, %v compactions; SUBSCRIBE p50 %v max %v; mean recompile %v",
		ops, total, compiles, med, worst, recompile)
	if worst > recompile/2 || med > recompile/20 {
		t.Errorf("SUBSCRIBE p50 %v max %v against a mean recompile of %v: a subscribe waited on a recompile",
			med, worst, recompile)
	}
}

// TestShutdownDuringCompaction: Shutdown with a compaction in flight must
// neither hang nor let the swap race the final checkpoint, and the snapshot
// it writes must hold the workload as of the shutdown — restarted from it,
// the broker still matches exactly the storm filters that were live.
func TestShutdownDuringCompaction(t *testing.T) {
	path := t.TempDir() + "/state.xpw"
	cfg := server.Config{
		DebugAddr:      "127.0.0.1:0",
		SnapshotPath:   path,
		InitialQueries: distinctFilters(t, 23, 800),
	}
	srv := startServer(t, cfg)
	cn := dialSub(t, srv.Addr(), newCollector())
	// Subscribe and release unique filters: the removed slots outgrow
	// their bound and the compaction recompiles 800+ filters, long enough to
	// catch in flight.
	n := 0
	for !machineSnapshot(t, srv).Compacting {
		id, err := cn.Subscribe(fmt.Sprintf("/probe[q=%d]", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := cn.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
		if n++; n > 2000 {
			t.Fatal("no compaction after 2000 unique subscribe/release cycles")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The subscriber is gone, so its filters were released before the final
	// checkpoint; the restored broker keeps the boot filters only.
	cfg.InitialQueries = nil
	srv2 := startServer(t, cfg)
	if got := srv2.NumUniqueQueries(); got != 800 {
		t.Errorf("restored %d unique queries, want the 800 boot filters", got)
	}
	pub := dialSub(t, srv2.Addr(), nil)
	if n, err := pub.Publish(probeDoc(0)); err != nil || n != 0 {
		t.Errorf("released storm filter still matches after restart: %d, %v", n, err)
	}
}
