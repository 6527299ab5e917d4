package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupReps is how many fresh set-ups a run performs; setup_s is their
// median and the last instance serves the timed phases.
const setupReps = 5

// scratchDir is where a run keeps WAL directories and trace output that
// must not outlive it. It sits under the checkout's build directory so the
// benchmark never writes outside its checkout.
const scratchDir = ".bench_build/tmp"

// result is everything one run measured.
type result struct {
	Workload string
	Seed     int64
	PlanHash string
	// EndToEnd holds the round-median metrics with their spread; Layers the
	// traced run's per-layer numbers.
	EndToEnd map[string]summary
	// Raw holds the same metrics' medians before host normalisation.
	Raw    map[string]float64
	Layers map[string]float64
	Ladder []rung
	// Info are lines for the human reader: numbers measured on the way that
	// are not gated metrics.
	Info []string

	Attempted, Failed int64
	Failures          []string
}

// runConfig is one invocation's knobs.
type runConfig struct {
	W       *workload
	Seed    int64
	Seconds int
	Trace   bool
}

// roundsFor scales the round count with the requested run length; the work
// per round never changes, and the count never drops below baseRounds.
func roundsFor(seconds int) int {
	return max(baseRounds, baseRounds*seconds/baseSeconds)
}

// stopwatch returns a function that prints how long the step just finished
// took — where a run's wall time goes, against the contract's budget.
func stopwatch() func(step string) {
	last := time.Now()
	return func(step string) {
		now := time.Now()
		fmt.Printf("step %-12s %6.2f s\n", step, now.Sub(last).Seconds())
		last = now
	}
}

// boot performs one complete set-up of the workload's system.
func boot(p *plan, o *oracle, t *tally, rc runConfig) (system, error) {
	if !p.W.Broker {
		return bootEngine(p, o, t)
	}
	dir, err := os.MkdirTemp(scratchDir, "wal-")
	if err != nil {
		return nil, err
	}
	return bootBroker(p, o, t, brokerOpts{dir: dir, debug: rc.Trace})
}

// maxColdPasses bounds set-up's warm-up. A static workload settles in two
// or three passes; the churn script adds filters as it goes and never does.
const maxColdPasses = 4

// coldPasses ends set-up: the machine is lazy, so the first documents build
// its states. The pool is replayed until a pass adds none.
func coldPasses(p *plan, sys system, states func() int) error {
	docs := p.roundDocs(poolDocs)
	last := -1
	for pass := 0; pass < maxColdPasses; pass++ {
		if err := sys.run(docs, nil, false); err != nil {
			return err
		}
		now := states()
		if now == last {
			break
		}
		last = now
	}
	return nil
}

func runWorkload(rc runConfig) (*result, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	w := rc.W
	mark := stopwatch()
	p, err := buildPlan(w, rc.Seed)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	o, err := buildOracle(p)
	if err != nil {
		return nil, err
	}
	if !w.Broker {
		// The broker workloads check every delivery against the oracle; the
		// oracle itself is checked here, against the reference evaluator.
		if err := o.checkAgainstNaive(p, t); err != nil {
			return nil, err
		}
	}
	mark("plan+oracle")
	res := &result{Workload: w.Name, Seed: rc.Seed, PlanHash: p.Hash,
		EndToEnd: map[string]summary{}, Raw: map[string]float64{}, Layers: map[string]float64{}}

	// Set-up, repeated: one cold start is a one-shot reading.
	reps := setupReps
	if rc.Trace {
		reps = 1
	}
	var setups, rawSetups rounds
	var sys system
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		var took time.Duration
		host, err := hostFactor(func() (err error) {
			t0 := time.Now()
			sys, err = boot(p, o, t, rc)
			took = time.Since(t0)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds()/host)
		rawSetups = append(rawSetups, took.Seconds())
	}
	defer sys.close()
	res.EndToEnd["setup_s"] = setups.summary()
	res.Raw["setup_s"] = rawSetups.median()
	mark("set-up")

	if rc.Trace {
		err = tracedPhases(rc, p, o, t, sys, res)
	} else {
		err = timedPhases(rc, p, sys, res, mark)
	}
	if b, ok := sys.(*broker); ok {
		if drops := int64(b.scrape("xpushserve_dropped_total")); drops > 0 {
			t.failed.Add(drops)
			t.failf("%d deliveries dropped under the block policy", drops)
		}
	}
	res.Attempted, res.Failed, res.Failures = t.attempted.Load(), t.failed.Load(), t.msgs
	return res, err
}

// timedPhases is the untraced run. Saturate and paced rounds alternate, so
// both phases sample the whole run: interference on a shared host comes in
// bursts of seconds, and a burst that would swallow most of one phase now
// touches a minority of each phase's rounds, which the round median ignores.
func timedPhases(rc runConfig, p *plan, sys system, res *result, mark func(string)) error {
	w := rc.W
	n := roundsFor(rc.Seconds)
	satDocs, pacedDocs := p.roundDocs(w.SaturateDocs), p.roundDocs(w.PacedDocs)
	var sat saturateResult
	var pc pacedResult
	runtime.GC()
	for r := 0; r < n; r++ {
		if err := sat.round(sys, satDocs, false); err != nil {
			return fmt.Errorf("saturate round %d: %w", r, err)
		}
		if err := pc.round(sys, pacedDocs, w.PacedRate); err != nil {
			return fmt.Errorf("paced round %d: %w", r, err)
		}
	}
	mark("rounds")
	res.EndToEnd["docs_per_s"] = sat.docsPerS.summary()
	res.EndToEnd["cpu_us_per_doc"] = sat.cpuUS.summary()
	res.EndToEnd["latency_p50_ms"] = pc.p50.summary()
	res.Raw["docs_per_s"], res.Raw["cpu_us_per_doc"] = sat.rawDocsPerS.median(), sat.rawCPUUS.median()
	res.Raw["latency_p50_ms"] = pc.rawP50.median()
	res.Info = append(res.Info, fmt.Sprintf("host factor %.3f (median over saturate rounds; 1.0 = reference kernel at %v)",
		sat.docsPerS.median()/sat.rawDocsPerS.median(), refNominal))
	res.Info = append(res.Info, fmt.Sprintf("paced: latency p90 %.4f ms (round median), generator lag p99 %.4f ms, backlog %v documents (round median)",
		pc.p90.median(), percentile(pc.lags, 0.99), pc.backlog.median()))
	if limit := backlogLimit(w.PacedRate); pc.backlog.median() > limit {
		return fmt.Errorf("paced phase ran with a standing backlog: %v documents due and unsent in the median round (limit %v)",
			pc.backlog.median(), limit)
	}

	subMS, err := subscribePhase(sys)
	if err != nil {
		return err
	}
	mark("subscribe")
	res.Info = append(res.Info, fmt.Sprintf("subscribe: p50 %.4f ms over %d operations", percentile(subMS, 0.5), len(subMS)))
	rss := peakRSSMB()
	res.EndToEnd["peak_rss_mb"], res.Raw["peak_rss_mb"] = summary{Median: rss, Q1: rss, Q3: rss, N: 1}, rss
	return nil
}

// backlogLimit is the most due-but-unsent documents the median paced round
// may peak at: a tenth of a second of arrivals. One stalled round is the
// host's doing and is tolerated; a backlog standing in most rounds means the
// rate is not sustained and the latencies describe the queue, not the
// system.
func backlogLimit(rate float64) float64 { return rate / 10 }

// saturateResult and pacedResult collect one value per round, raw and scaled
// by the host factor measured around the round (see hostFactor).
type saturateResult struct {
	docsPerS, cpuUS       rounds
	rawDocsPerS, rawCPUUS rounds
}

// round runs one closed-loop round of docs and derives its throughput and
// CPU cost.
func (s *saturateResult) round(sys system, docs []uint16, timed bool) error {
	var wall, cpu time.Duration
	host, err := hostFactor(func() error {
		cpu0, t0 := cpuTime(), time.Now()
		err := sys.run(docs, nil, timed)
		wall, cpu = time.Since(t0), cpuTime()-cpu0
		return err
	})
	if err != nil {
		return err
	}
	perS := float64(len(docs)) / wall.Seconds()
	us := float64(cpu.Microseconds()) / float64(len(docs))
	s.rawDocsPerS, s.rawCPUUS = append(s.rawDocsPerS, perS), append(s.rawCPUUS, us)
	s.docsPerS, s.cpuUS = append(s.docsPerS, perS*host), append(s.cpuUS, us/host)
	return nil
}

type pacedResult struct {
	p50, rawP50, p90 rounds
	backlog          rounds    // each round's peak of due-but-unsent documents
	all              []float64 // every latency of the phase, ms
	lags             []float64 // generator lateness per document, ms
}

// round runs one open-loop round of docs at rate and derives its latency
// percentiles.
func (r *pacedResult) round(sys system, docs []uint16, rate float64) error {
	var pc *pacer
	host, err := hostFactor(func() error {
		pc = newPacer(rate, clock)
		return sys.run(docs, pc, true)
	})
	if err != nil {
		return err
	}
	lat := sys.latenciesMS(nil)
	r.all = append(r.all, lat...)
	p50 := percentile(lat, 0.5)
	r.rawP50, r.p50 = append(r.rawP50, p50), append(r.p50, p50/host)
	r.p90 = append(r.p90, percentile(lat, 0.9))
	r.lags = append(r.lags, pc.lags...)
	r.backlog = append(r.backlog, float64(pc.backlogMax))
	return nil
}

// subscribePhase times adding one filter to the loaded, warm system. On the
// churn workload the script's own subscribes are the samples, so nothing
// more is run.
func subscribePhase(sys system) ([]float64, error) {
	if b, ok := sys.(*broker); ok && b.p.W.ChurnEvery > 0 {
		return b.subscribeMS, nil
	}
	runtime.GC()
	out := make([]float64, 0, subscribeOps)
	for i := 0; i < subscribeOps; i++ {
		d, err := sys.addFilter(i)
		if err != nil {
			return nil, fmt.Errorf("subscribe op %d: %w", i, err)
		}
		out = append(out, ms(d))
	}
	return out, nil
}
