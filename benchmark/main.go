// Command benchmark is the repository's benchmark: one seeded workload per
// invocation, driven in-process, checked against an oracle, every metric
// printed by name with its unit and as one JSON object on the last line.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: engine-filter, broker-fanout, broker-durable, broker-churn")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same inputs and operation script")
		seconds = flag.Int("seconds", baseSeconds, "target length of the timed phases; scales the round count, never below 30")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer ladder and spans instead of end-to-end metrics")
		aa      = flag.Int("aa", 0, "run the whole suite as two interleaved sets N times and compare set medians with the declared bounds")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the program's own tables define it, and exit")
	)
	flag.Parse()
	if *spec {
		printSpec()
		return
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	procs := pinProcs()
	fmt.Printf("env: %s, cpu %q, nproc %d, GOMAXPROCS %d\n", runtime.Version(), cpuModel(), runtime.NumCPU(), procs)
	res, err := runWorkload(runConfig{W: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, *seed, err)
		if res != nil {
			for _, m := range res.Failures {
				fmt.Fprintf(os.Stderr, "  failure: %s\n", m)
			}
		}
		os.Exit(1)
	}
	printResult(res, *trace != 0)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// jsonMetric is one metric on the contract's result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the human-readable report and, last, the contract's
// one-line JSON object.
func printResult(res *result, traced bool) {
	fmt.Printf("workload %s seed %d plan_hash %s\n", res.Workload, res.Seed, res.PlanHash)
	metrics := map[string]jsonMetric{}
	if traced {
		printLadder(res)
		names := make([]string, 0, len(res.Layers))
		for n := range res.Layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-34s %14.4f %s\n", n, res.Layers[n], unitOf(n))
		}
		for _, m := range perLayer {
			metrics[m.Name] = jsonMetric{res.Layers[m.Name], m.Unit}
		}
	} else {
		fmt.Printf("%-18s %12s %-6s %12s %12s %6s %14s\n", "metric", "median", "unit", "q1", "q3", "rounds", "raw median")
		for _, m := range endToEnd {
			s := res.EndToEnd[m.Name]
			fmt.Printf("%-18s %12.4f %-6s %12.4f %12.4f %6d %14.4f\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N, res.Raw[m.Name])
			metrics[m.Name] = jsonMetric{s.Median, m.Unit}
		}
	}
	for _, line := range res.Info {
		fmt.Println(line)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, m := range res.Failures {
		fmt.Printf("  failure: %s\n", m)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}
