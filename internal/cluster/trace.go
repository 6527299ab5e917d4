package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/trace"
)

// retained returns a /debug/traces payload's traces, sampled and slow,
// each once.
func retained(p trace.TracesPayload) []trace.JSONTrace {
	seen := make(map[uint64]bool, len(p.Traces)+len(p.SlowTraces))
	out := make([]trace.JSONTrace, 0, len(p.Traces)+len(p.SlowTraces))
	for _, t := range append(p.Traces, p.SlowTraces...) {
		if !seen[t.ID] {
			seen[t.ID] = true
			out = append(out, t)
		}
	}
	return out
}

// fetchNodeTraces pulls one node's /debug/traces payload from its
// introspection address, giving it two seconds.
func fetchNodeTraces(debugAddr string) ([]trace.JSONTrace, error) {
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + debugAddr + "/debug/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s/debug/traces: %s", debugAddr, resp.Status)
	}
	var p trace.TracesPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, err
	}
	return retained(p), nil
}

// debugClusterTraces serves /debug/cluster/traces: the gate's retained
// publish traces merged with each node's /debug/traces (fetched live from
// the configured NodeDebug addresses) into one Chrome trace_event
// document — one process per publish, with the gate's ingress and node-hop
// rows followed by each node's wal/filter/queue/deliver rows, matched by
// the propagated trace id. Nodes that cannot be reached are skipped and
// named in an X-Trace-Skipped header so a partial merge is still visibly
// partial.
func (g *Gate) debugClusterTraces(w http.ResponseWriter, _ *http.Request) {
	gate := retained(g.tracer.Payload())
	var nodes []trace.NodeTraces
	var skipped []string
	for _, n := range g.nodes {
		dbg, ok := g.nodeDebug[n]
		if !ok {
			continue
		}
		ts, err := fetchNodeTraces(dbg)
		if err != nil {
			g.logf("cluster: trace fetch from %s (%s) failed: %v", n, dbg, err)
			skipped = append(skipped, n)
			continue
		}
		nodes = append(nodes, trace.NodeTraces{Node: n, Traces: ts})
	}
	if len(skipped) > 0 {
		w.Header().Set("X-Trace-Skipped", strings.Join(skipped, ","))
	}
	w.Header().Set("Content-Type", "application/json")
	trace.MergeChrome(w, gate, nodes)
}
