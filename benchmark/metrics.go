package main

import (
	"encoding/json"
	"fmt"
)

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two in
// step.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"docs_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_doc", "us", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics a traced run reports on every workload; a layer
// the workload does not pass through reads 0. They carry no bound.
var perLayer = []metricDef{
	{Name: "sax.scan_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "sax.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "sax.allocs_per_doc", Unit: "count", Better: "lower"},

	{Name: "engine.compile_s", Unit: "s", Better: "lower"},
	{Name: "engine.cold_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "engine.filter_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "engine.machine_self_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "engine.allocs_per_doc", Unit: "count", Better: "lower"},
	{Name: "engine.states", Unit: "count", Better: "lower"},
	{Name: "engine.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.layers", Unit: "count", Better: "lower"},
	{Name: "engine.matches_per_doc", Unit: "count", Better: "higher"},
	{Name: "engine.layered_filter_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "engine.approx_mem_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.with_queries_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.consolidated_ms", Unit: "ms", Better: "lower"},
	{Name: "xpath.canon_ns_per_filter", Unit: "ns", Better: "lower"},

	{Name: "registry.fanout_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "registry.deliveries_per_doc", Unit: "count", Better: "higher"},
	{Name: "registry.unique_queries", Unit: "count", Better: "lower"},
	{Name: "registry.dedup_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "frame.encode_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "frame.decode_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "frame.bytes_per_doc", Unit: "B", Better: "lower"},

	{Name: "server.pub_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.floor_cpu_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.delivery_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.subscribe_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.pub_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.pub_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.delivery_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.delivery_max_ms", Unit: "ms", Better: "lower"},
	{Name: "server.subscribe_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.subscribe_max_ms", Unit: "ms", Better: "lower"},
	{Name: "server.unsubscribe_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.consolidations", Unit: "count", Better: "lower"},
	{Name: "server.drops", Unit: "count", Better: "lower"},
	{Name: "server.churn_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "server.self_us_per_doc", Unit: "us", Better: "lower"},

	{Name: "wal.append_us_p50.never", Unit: "us", Better: "lower"},
	{Name: "wal.append_us_p50.interval", Unit: "us", Better: "lower"},
	{Name: "wal.append_us_p50.always", Unit: "us", Better: "lower"},
	{Name: "wal.append_docs_per_s.always", Unit: "1/s", Better: "higher"},
	{Name: "wal.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.read_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "durable.replay_catchup_s", Unit: "s", Better: "lower"},
	{Name: "durable.replay_docs_per_s", Unit: "1/s", Better: "higher"},

	{Name: "gate.hop_us_p50", Unit: "us", Better: "lower"},
	{Name: "gate.docs_per_s", Unit: "1/s", Better: "higher"},

	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.backlog_max", Unit: "count", Better: "lower"},
	{Name: "loadgen.self_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "proc.docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "proc.allocs_per_doc", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},

	{Name: "host.factor", Unit: "ratio", Better: "lower"},
	{Name: "ladder.residual_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// printSpec writes BENCHMARK.json from the tables above and workloads.go, so
// the file the driver reads cannot drift from what the program reports.
func printSpec() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: baseSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, _ := json.MarshalIndent(spec, "", "  ")
	fmt.Println(string(out))
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
