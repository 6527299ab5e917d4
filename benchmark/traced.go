package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// tracedRounds is the round count of each phase in a traced run: its numbers
// are shares and diagnostics, not gated medians, so it buys ladder time with
// shorter phases.
const tracedRounds = 10

// spanLimit bounds the in-memory span log (and the trace file's size);
// spanDocs is how many documents of each timed round are recorded, so the
// saturate, paced and ladder spans all fit under it.
const (
	spanLimit = 40000
	spanDocs  = 256
)

// replayReps is how many reconnect-and-catch-up cycles broker-durable times.
const replayReps = 3

// tracedPhases is the -trace run: the workload's phases with spans recorded
// around the harness's own calls, then the ladder rungs on the workload's
// documents, then the reconciliation of the two.
func tracedPhases(rc runConfig, p *plan, o *oracle, t *tally, sys system, res *result) error {
	w := rc.W
	L := res.Layers
	log := newSpanLog(spanLimit)
	b, _ := sys.(*broker)
	base := sys.machine()

	// Saturate, untimed and timed rounds alternating: the untimed ones give
	// the CPU cost the ladder is reconciled against, the difference between
	// the two is what per-document timestamps and spans cost.
	docs := p.roundDocs(w.SaturateDocs)
	var plain, traced saturateResult
	var layers []float64
	var mem memCounters // summed over the untimed rounds only
	for r := 0; r < tracedRounds; r++ {
		before := readMem()
		if err := plain.round(sys, docs, false); err != nil {
			return err
		}
		after := readMem()
		mem.mallocs += after.mallocs - before.mallocs
		mem.bytes += after.bytes - before.bytes
		mem.gcCycles += after.gcCycles - before.gcCycles
		mem.gcPause += after.gcPause - before.gcPause
		if err := traced.round(sys, docs, true); err != nil {
			return err
		}
		sys.spans(log, spanDocs)
		layers = append(layers, float64(sys.machine().Layers))
	}
	plainDocs := float64(tracedRounds * len(docs))
	cpuUS := plain.rawCPUUS.median()
	L["proc.cpu_us_per_doc"] = cpuUS
	L["proc.docs_per_s"] = plain.rawDocsPerS.median()
	L["proc.allocs_per_doc"] = float64(mem.mallocs) / plainDocs
	L["proc.alloc_bytes_per_doc"] = float64(mem.bytes) / plainDocs
	L["proc.gc_cycles"] = float64(mem.gcCycles)
	L["proc.gc_pause_ms_total"] = ms(mem.gcPause)
	L["trace.overhead_pct"] = 100 * (1 - traced.rawDocsPerS.median()/plain.rawDocsPerS.median())

	// Paced: the tail percentiles that do not repeat within a tenth live
	// here, with the generator's own lateness.
	var pc pacedResult
	pacedDocs := p.roundDocs(w.PacedDocs)
	for r := 0; r < tracedRounds; r++ {
		if err := pc.round(sys, pacedDocs, w.PacedRate); err != nil {
			return err
		}
	}
	sys.spans(log, spanDocs)
	L["server.delivery_p90_ms"] = pc.p90.median()
	L["server.delivery_p99_ms"] = percentile(pc.all, 0.99)
	L["server.delivery_max_ms"] = percentile(pc.all, 1)
	L["loadgen.lag_p99_ms"] = percentile(pc.lags, 0.99)
	L["loadgen.backlog_max"] = percentile(pc.backlog, 1)
	if b != nil {
		acks := b.ackLatenciesMS(nil)
		L["server.pub_ack_p50_ms"] = percentile(acks, 0.5)
		L["server.pub_ack_p99_ms"] = percentile(acks, 0.99)
	}

	subMS, err := subscribePhase(sys)
	if err != nil {
		return err
	}
	L["server.subscribe_p50_ms"] = percentile(subMS, 0.5)
	L["server.subscribe_p99_ms"] = percentile(subMS, 0.99)
	L["server.subscribe_max_ms"] = percentile(subMS, 1)
	if b != nil {
		L["server.unsubscribe_p50_ms"] = percentile(b.unsubscribeMS, 0.5)
	}

	mi := sys.machine()
	L["engine.states"] = float64(mi.States)
	L["engine.hit_ratio"] = mi.HitRatio
	L["engine.layers"] = rounds(layers).mean()
	L["engine.approx_mem_mb"] = mi.MemMB
	L["server.consolidations"] = mi.Consolidations - base.Consolidations
	if b != nil {
		L["server.drops"] = b.scrape("xpushserve_dropped_total")
	}

	if w.Durable {
		backlog := p.roundDocs(w.SaturateDocs)
		var took rounds
		for i := 0; i < replayReps; i++ {
			d, err := b.replay(backlog)
			if err != nil {
				return fmt.Errorf("replay %d: %w", i, err)
			}
			took = append(took, d.Seconds())
		}
		L["durable.replay_catchup_s"] = took.median()
		L["durable.replay_docs_per_s"] = float64(len(backlog)) / took.median()
	}
	if w.Name == "broker-fanout" {
		if err := gateRung(p, o, t, b, L); err != nil {
			return fmt.Errorf("gate rung: %w", err)
		}
	}

	L["loadgen.self_us_per_doc"] = loadgenSelf(p, o, sys)
	L["host.factor"] = plain.docsPerS.median() / plain.rawDocsPerS.median()
	if w.ChurnEvery > 0 {
		// The script's control-plane round trips are synchronous, so their
		// mean is the time a churn operation takes out of the publish loop;
		// spread over the documents between two of them it is a rung.
		L["server.churn_us_per_doc"] = 1e3 * (rounds(b.subscribeMS).mean() + rounds(b.unsubscribeMS).mean()) / float64(w.ChurnEvery)
		var err error
		if L["engine.layered_filter_ns_per_doc"], err = layeredFilter(p, o, int(L["engine.layers"]+0.5)); err != nil {
			return err
		}
	}
	if err := ladder(p, o, res, log); err != nil {
		return err
	}
	reconcile(w, res)

	path := traceOutPath(w.Name)
	if err := log.writeChrome(path); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Printf("trace: %d spans (%d past the limit dropped) written to %s\n", len(log.spans), log.dropped, path)
	for _, st := range log.selfTimes() {
		fmt.Printf("  span %-16s n=%-6d mean %9.2f us  self %9.2f us\n", st.Name, st.Count,
			float64(st.Total.Microseconds())/float64(st.Count), float64(st.Self.Microseconds())/float64(st.Count))
	}
	return nil
}

// traceOutPath is where a traced run leaves its Chrome trace.
func traceOutPath(workload string) string {
	return filepath.Join("benchmark", "out", "trace-"+workload+".json")
}

// gateRung repeats the workload's traffic through cluster.New with one node
// and prices the hop against the direct broker b: synchronous round trips
// for the latency, closed-loop rounds for the throughput.
func gateRung(p *plan, o *oracle, t *tally, direct *broker, L map[string]float64) error {
	dir, err := os.MkdirTemp(scratchDir, "gate-")
	if err != nil {
		return err
	}
	g, err := bootBroker(p, o, t, brokerOpts{dir: dir, gate: true})
	if err != nil {
		return err
	}
	defer g.close()
	var sat saturateResult
	docs := p.roundDocs(p.W.SaturateDocs)
	for r := 0; r < 5; r++ {
		if err := sat.round(g, docs, false); err != nil {
			return err
		}
	}
	L["gate.docs_per_s"] = sat.rawDocsPerS.median()

	rtt := func(b *broker) (float64, error) {
		b.sync = true
		defer func() { b.sync = false }()
		if err := b.run(p.roundDocs(poolDocs), nil, true); err != nil {
			return 0, err
		}
		return percentile(b.ackLatenciesMS(nil), 0.5) * 1e3, nil
	}
	via, err := rtt(g)
	if err != nil {
		return err
	}
	straight, err := rtt(direct)
	if err != nil {
		return err
	}
	L["gate.hop_us_p50"] = via - straight
	return nil
}

// sink keeps loadgenSelf's checks from being optimised away.
var sink uint64

// loadgenSelf prices the generator against a null sink: the per-document
// work the harness itself does around the calls into the program — tag,
// expectation, and checking an ack and a delivery against the oracle — with
// nothing sent anywhere.
func loadgenSelf(p *plan, o *oracle, sys system) float64 {
	b, ok := sys.(*broker)
	if !ok {
		// The engine loop's own work is an index and a length compare.
		return 0
	}
	ids := make([][]uint64, len(p.Docs))
	b.mu.Lock()
	for id, f := range b.subFilter {
		if f < 0 || b.subUntil[id] != ^uint64(0) {
			continue
		}
		for d := range p.Docs {
			if o.matches(d, f) {
				ids[d] = append(ids[d], uint64(id))
			}
		}
	}
	b.mu.Unlock()
	cpu0 := cpuTime()
	n := 0
	for pass := 0; pass < rungPasses; pass++ {
		for _, d := range p.Order {
			doc := p.Docs[d]
			setTag(doc, uint64(n))
			b.mu.Lock()
			subs, ack := b.expect(d)
			b.mu.Unlock()
			seq, _ := readTag(doc)
			b.mu.Lock()
			for _, id := range ids[d] {
				if o.matches(int(d), b.subFilter[id]) && seq >= b.subFrom[id] {
					sink++
				}
			}
			b.mu.Unlock()
			sink += uint64(subs + ack)
			n++
		}
	}
	return float64((cpuTime() - cpu0).Microseconds()) / float64(n)
}

// reconcile builds the ladder table: each rung's per-document cost on this
// workload, and what the rungs leave unexplained of the measured CPU cost.
func reconcile(w *workload, res *result) {
	L := res.Layers
	add := func(name string, ns float64) { res.Ladder = append(res.Ladder, rung{name, ns}) }
	add("sax.scan", L["sax.scan_ns_per_doc"])
	add("engine.machine_self", L["engine.machine_self_ns_per_doc"])
	if w.ChurnEvery > 0 {
		// The live engine carries COW layers the consolidated oracle engine
		// does not; every layer runs its own machine off the one parse.
		add("engine.layers_self", L["engine.layered_filter_ns_per_doc"]-L["engine.filter_ns_per_doc"])
		add("server.churn", L["server.churn_us_per_doc"]*1e3)
	}
	if w.Broker {
		add("registry.fanout", L["registry.fanout_ns_per_doc"])
		add("frame.encode", L["frame.encode_ns_per_doc"])
		add("frame.decode", L["frame.decode_ns_per_doc"])
	}
	if w.Durable {
		// Publish appends; the pump reads every record back and filters it
		// a second time.
		add("wal.append", L["wal.append_us_p50.interval"]*1e3)
		add("wal.read", L["wal.read_ns_per_doc"])
		add("durable.refilter", L["engine.filter_ns_per_doc"])
	}
	var below float64
	for _, r := range res.Ladder {
		below += r.NS
	}
	cpuNS := L["proc.cpu_us_per_doc"] * 1e3
	loadgenNS := L["loadgen.self_us_per_doc"] * 1e3
	if w.Broker {
		// What the rungs below the session layer do not account for is the
		// server+client+TCP share; the measured loopback floor (less the
		// scan it includes) is how much of that share is explained.
		L["server.self_us_per_doc"] = (cpuNS - below - loadgenNS) / 1e3
		add("server.floor", L["server.floor_cpu_us_per_doc"]*1e3-L["sax.scan_ns_per_doc"])
		below += res.Ladder[len(res.Ladder)-1].NS
	}
	add("loadgen.self", loadgenNS)
	below += loadgenNS
	L["ladder.residual_pct"] = 100 * (cpuNS - below) / cpuNS
}

// printLadder prints the reconciliation table of a traced run.
func printLadder(res *result) {
	L := res.Layers
	cpuNS := L["proc.cpu_us_per_doc"] * 1e3
	floor := L["sax.scan_ns_per_doc"]
	fmt.Printf("ladder for %s: cpu_us_per_doc %.2f (untimed saturate rounds of this run)\n", res.Workload, cpuNS/1e3)
	fmt.Printf("  %-22s %12s %8s %10s\n", "rung", "ns/doc", "share", "x floor")
	for _, r := range res.Ladder {
		fmt.Printf("  %-22s %12.0f %7.1f%% %10.2f\n", r.Name, r.NS, 100*r.NS/cpuNS, r.NS/floor)
	}
	fmt.Printf("  %-22s %12.0f %7.1f%%\n", "residual", cpuNS*L["ladder.residual_pct"]/100, L["ladder.residual_pct"])
}
