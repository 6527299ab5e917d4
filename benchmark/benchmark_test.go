package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// Same seed, same inputs and script; another seed, another plan. This is
// what lets two commits be compared on one workload.
func TestPlanDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := buildPlan(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := buildPlan(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		c, err := buildPlan(w, 8)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if a.Hash != b.Hash {
			t.Errorf("%s: seed 7 hashed %s then %s", w.Name, a.Hash, b.Hash)
		}
		if a.Hash == c.Hash {
			t.Errorf("%s: seeds 7 and 8 share plan_hash %s", w.Name, a.Hash)
		}
		if len(a.Filters) != w.Filters || len(a.Extra) != subscribeOps || len(a.Docs) != poolDocs {
			t.Errorf("%s: plan has %d filters, %d extra, %d docs", w.Name, len(a.Filters), len(a.Extra), len(a.Docs))
		}
		if w.Broker && len(a.Subs) != w.Subscribers {
			t.Errorf("%s: %d initial subscriptions, want %d", w.Name, len(a.Subs), w.Subscribers)
		}
		if w.InitialDistinct > 0 {
			distinct := map[int]bool{}
			for _, f := range a.Subs {
				distinct[f] = true
			}
			if len(distinct) != w.InitialDistinct {
				t.Errorf("%s: initial subscriptions cover %d filters, want %d", w.Name, len(distinct), w.InitialDistinct)
			}
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	doc := []byte(tagPrefix + "0000000000000000--><a/>")
	for _, seq := range []uint64{0, 1, 0xabcdef, math.MaxUint64} {
		setTag(doc, seq)
		got, ok := readTag(doc)
		if !ok || got != seq {
			t.Errorf("tag %d read back as %d, %v", seq, got, ok)
		}
	}
	if _, ok := readTag([]byte("<a/>")); ok {
		t.Error("untagged document read as tagged")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must not read as a number")
	}
}

func TestRoundMedian(t *testing.T) {
	r := rounds{10, 12, 11, 100, 9} // one descheduled round must not move the metric
	s := r.summary()
	if s.Median != 11 || s.Q1 != 10 || s.Q3 != 12 || s.N != 5 {
		t.Errorf("summary = %+v", s)
	}
	if r[3] != 100 {
		t.Error("summary reordered its input")
	}
	got := chunkQuantiles([]float64{1, 2, 3, 10, 20, 30}, 2, 0.5)
	if len(got) != 2 || got[0] != 2 || got[1] != 20 {
		t.Errorf("chunkQuantiles = %v", got)
	}
	if d := relDiff(90, 110); math.Abs(d-0.2) > 1e-9 {
		t.Errorf("relDiff(90,110) = %v", d)
	}
}

// fakeClock advances only when the pacer sleeps or polls, so the test sees
// exactly the schedule arithmetic.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) read() time.Duration   { c.now += time.Microsecond; return c.now }
func (c *fakeClock) sleep(d time.Duration) { c.now += d }

func TestPacerIntendedStartsAndLag(t *testing.T) {
	clk := &fakeClock{}
	p := newPacer(1000, clk.read) // 1 ms period
	p.sleep = clk.sleep
	start := p.start

	// On time: each operation is released at (or a poll after) its due
	// time and the returned intended start is exactly on the grid.
	for i := 0; i < 3; i++ {
		if due := p.wait(i); due != start+time.Duration(i)*time.Millisecond {
			t.Fatalf("op %d intended at %v, want %v", i, due-start, time.Duration(i)*time.Millisecond)
		}
		if clk.now < p.intended(i) {
			t.Fatalf("op %d released %v early", i, p.intended(i)-clk.now)
		}
	}
	if lag := p.lags[2]; lag > 0.01 {
		t.Errorf("on-time op recorded %v ms of lag", lag)
	}

	// A 5 ms stall: the next operations are released at once, their
	// intended starts stay on the grid (so latency counts the stall), and
	// lag and backlog record how late the generator ran.
	clk.now += 5 * time.Millisecond
	due := p.wait(3)
	if due != start+3*time.Millisecond {
		t.Errorf("stalled op intended at %v, want 3ms", due-start)
	}
	if lag := p.lags[3]; lag < 4 || lag > 5.1 {
		t.Errorf("stalled op lag = %v ms, want about 4-5", lag)
	}
	if p.backlogMax < 4 {
		t.Errorf("backlogMax = %d after a 5-period stall", p.backlogMax)
	}
	before := clk.now
	p.wait(4)
	if clk.now-before > 10*time.Microsecond {
		t.Errorf("op behind schedule waited %v", clk.now-before)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := newSpanLog(10)
	root := l.add("publish", 0, 100, 0, 1)
	l.add("ack", 10, 40, root, 1)
	l.add("deliver", 30, 70, root, 1) // overlaps ack: the union covers 10..70
	got := map[string]selfTime{}
	for _, st := range l.selfTimes() {
		got[st.Name] = st
	}
	if got["publish"].Self != 40 || got["publish"].Total != 100 {
		t.Errorf("publish self/total = %v/%v, want 40/100", got["publish"].Self, got["publish"].Total)
	}
	if got["ack"].Self != 30 {
		t.Errorf("leaf span self = %v, want its duration", got["ack"].Self)
	}
	for i := 0; i < 20; i++ {
		l.add("x", 0, 1, 0, 0)
	}
	if len(l.spans) != 10 || l.dropped != 13 {
		t.Errorf("log kept %d spans and dropped %d, want 10 and 13", len(l.spans), l.dropped)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the program prints. They must agree.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var spec struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != baseSeconds {
		t.Errorf("run_seconds %d, harness is sized for %d", spec.RunSeconds, baseSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, implemented %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, declared []entry, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d implemented", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			got := declared[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, got, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
