package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is -aa N: the whole suite as two interleaved sets (A and B, the same
// code) N times, each pair on its own seed. Per workload and end-to-end
// metric it prints both set medians, their relative difference and the bound
// BENCHMARK.json declares, as a markdown table (benchmark/AA.md is this
// output for N=5), and returns non-zero if any difference exceeds its bound.
// Each run is a fresh process, as the driver's are.
func runAA(n int, seed int64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// values[{workload, metric}][set] are that set's n readings.
	type key struct{ workload, metric string }
	values := map[key][2]rounds{}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for k := 0; k < 2; k++ {
				set := (k + i) % 2 // alternate which set goes first
				m, err := runChild(exe, w.Name, seed+int64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: -aa: %s seed %d: %v\n", w.Name, seed+int64(i), err)
					return 1
				}
				for name, v := range m {
					sets := values[key{w.Name, name}]
					sets[set] = append(sets[set], v)
					values[key{w.Name, name}] = sets
				}
				fmt.Fprintf(os.Stderr, "aa: pair %d/%d %s set %c done\n", i+1, n, w.Name, 'A'+set)
			}
		}
	}

	fmt.Printf("A/A over %d interleaved pairs per workload, seeds %d..%d, %d s runs\n\n", n, seed, seed+int64(n)-1, seconds)
	fmt.Println("| workload | metric | unit | median A | median B | rel. diff | bound | |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---|")
	exceeded := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			sets := values[key{w.Name, m.Name}]
			a, b := sets[0].median(), sets[1].median()
			d := relDiff(a, b)
			verdict := "ok"
			if d > m.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, a, b, 100*d, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		fmt.Printf("\n%d metric(s) differ between two sets of the same code by more than their bound.\n", exceeded)
		return 1
	}
	fmt.Println("\nEvery set-median difference is within its declared bound.")
	return 0
}

// runChild runs one untraced workload in a fresh process and parses the
// contract's result line.
func runChild(exe, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct bool                  `json:"correct"`
		Metrics map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported failed operations")
	}
	m := map[string]float64{}
	for name, v := range line.Metrics {
		m[name] = v.Value
	}
	return m, nil
}
