// Command xpushload is a YCSB-style open-loop load harness for xpushserve:
// it materializes a seeded workload (skewed subscriber popularity over a
// distinct-filter pool, durable/ephemeral mix, weighted document sizes),
// drives it against a real broker over TCP through the client package, and
// measures publish-ack and end-to-end delivery latency without coordinated
// omission — every latency is taken from the document's intended start
// under the target arrival rate.
//
//	xpushload -addr 127.0.0.1:9310 -workload workloads/smoke.props \
//	    -set seed=7 -json BENCH.json
//
// Workload properties come from the -workload file, overridden by repeated
// -set key=value flags (see internal/load.Spec for the key set). Phases run
// in file order; each can layer churn (subscribe/unsubscribe) and reconnect
// storms on top of the publish schedule:
//
//	phase.warmup = 1s
//	phase.steady = 10s
//	phase.churn  = 10s churn=200 reconnect=10
//
// The exit status is non-zero when the run could not complete or any phase
// recorded errors, so CI can gate on a smoke scenario directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xpushload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9310", "broker data-plane address")
	workload := fs.String("workload", "", "workload properties file (see workloads/*.props)")
	jsonPath := fs.String("json", "", "write a BENCH-style JSON report to this file")
	title := fs.String("title", "", "report title for -json (default derived from the workload name)")
	quiet := fs.Bool("quiet", false, "suppress per-interval progress lines")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = sum of phases + 1m)")
	var sets []string
	fs.Func("set", "override one workload property, key=value (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("expected key=value, got %q", v)
		}
		sets = append(sets, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec := load.DefaultSpec()
	if *workload != "" {
		f, err := os.Open(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "xpushload:", err)
			return 2
		}
		err = load.ParseProps(f, &spec)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "xpushload: %s: %v\n", *workload, err)
			return 2
		}
	}
	for _, kv := range sets {
		key, value, _ := strings.Cut(kv, "=")
		if err := spec.Set(strings.TrimSpace(key), strings.TrimSpace(value)); err != nil {
			fmt.Fprintf(stderr, "xpushload: -set %s: %v\n", kv, err)
			return 2
		}
	}

	plan, err := load.BuildPlan(spec)
	if err != nil {
		fmt.Fprintln(stderr, "xpushload:", err)
		return 2
	}

	budget := *timeout
	if budget <= 0 {
		budget = time.Minute
		for _, ph := range spec.Phases {
			budget += ph.Duration
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	fmt.Fprintf(stdout, "xpushload: %s seed=%d: %d subscribers (%.0f%% durable) over %d filters (%s), %s docs, target %g docs/s -> %s\n",
		spec.Name, spec.Seed, spec.Subscribers, spec.DurableRatio*100, spec.Filters,
		spec.Popularity, load.SizeMixString(spec.DocSizes), spec.Rate, *addr)

	var progress io.Writer
	if !*quiet {
		progress = stdout
	}
	res, err := (&load.Runner{Plan: plan, Addr: *addr, Log: progress}).Run(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "xpushload:", err)
		return 1
	}

	failed := false
	for _, ph := range res.Phases {
		fmt.Fprintf(stdout, "\nphase %-10s %6.1fs  target %g/s achieved %.0f/s  published %d  deliveries %d (%d durable)\n",
			ph.Name, ph.Seconds, ph.TargetRate, ph.AchievedRate, ph.Published, ph.Deliveries, ph.DurableDeliveries)
		if ph.ChurnOps+ph.Reconnects > 0 {
			fmt.Fprintf(stdout, "  churn %d ops, %d reconnect storms\n", ph.ChurnOps, ph.Reconnects)
		}
		fmt.Fprintf(stdout, "  pub-ack   p50=%-10v p99=%-10v p99.9=%-10v max=%v\n",
			load.Micros(ph.PubAck.P50), load.Micros(ph.PubAck.P99),
			load.Micros(ph.PubAck.P999), load.Micros(ph.PubAck.Max))
		fmt.Fprintf(stdout, "  delivery  p50=%-10v p99=%-10v p99.9=%-10v max=%v\n",
			load.Micros(ph.Delivery.P50), load.Micros(ph.Delivery.P99),
			load.Micros(ph.Delivery.P999), load.Micros(ph.Delivery.Max))
		if ph.MaxSchedLagMs > 0 {
			fmt.Fprintf(stdout, "  max scheduler lag %.1fms\n", ph.MaxSchedLagMs)
		}
		if ph.Failed() {
			failed = true
			fmt.Fprintf(stdout, "  ERRORS: %d ack errors, %d harness errors\n", ph.AckErrors, ph.Errors)
		}
	}

	if *jsonPath != "" {
		t := *title
		if t == "" {
			t = fmt.Sprintf("xpushload %s: open-loop load against xpushserve", spec.Name)
		}
		cmd := "xpushload " + strings.Join(args, " ")
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(stderr, "xpushload:", err)
			return 1
		}
		werr := res.BenchReport(t, cmd).WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "xpushload:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "\nreport written to %s\n", *jsonPath)
	}

	if failed {
		fmt.Fprintln(stderr, "xpushload: run recorded errors")
		return 1
	}
	return 0
}
