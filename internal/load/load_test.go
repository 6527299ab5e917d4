package load

import (
	"context"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/server"
	"repro/wal"
)

func TestParseProps(t *testing.T) {
	props := `
# smoke scenario
name = smoke
seed = 7
subscribers = 200
filters = 50
popularity = zipfian
zipf-theta = 0.9
durable-ratio = 0.2
doc-sizes = 8k:1, 1024:4
rate = 400
phase.warmup = 1s
phase.steady = 3s
phase.churn = 3s churn=50 reconnect=5
`
	spec := DefaultSpec()
	if err := ParseProps(strings.NewReader(props), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Name != "smoke" || spec.Seed != 7 || spec.Subscribers != 200 {
		t.Fatalf("scalars: %+v", spec)
	}
	if spec.DurableRatio != 0.2 || spec.ZipfTheta != 0.9 {
		t.Fatalf("floats: %+v", spec)
	}
	// Mix parses k-suffixes and sorts ascending.
	want := []SizeClass{{1024, 4}, {8192, 1}}
	if !reflect.DeepEqual(spec.DocSizes, want) {
		t.Fatalf("doc-sizes = %v, want %v", spec.DocSizes, want)
	}
	if len(spec.Phases) != 3 {
		t.Fatalf("phases = %v", spec.Phases)
	}
	churn := spec.Phases[2]
	if churn.Name != "churn" || churn.Duration != 3*time.Second || churn.ChurnRate != 50 || churn.ReconnectRate != 5 {
		t.Fatalf("churn phase = %+v", churn)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	// Later keys override, including re-set phases (order preserved).
	if err := spec.Set("phase.steady", "5s rate=100"); err != nil {
		t.Fatal(err)
	}
	if spec.Phases[1].Duration != 5*time.Second || spec.Phases[1].Rate != 100 {
		t.Fatalf("phase update: %+v", spec.Phases[1])
	}
	if err := spec.Set("bogus-key", "1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if err := ParseProps(strings.NewReader("no equals sign"), &spec); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Subscribers = 0 },
		func(s *Spec) { s.Filters = 0 },
		func(s *Spec) { s.Rate = 0 },
		func(s *Spec) { s.DurableRatio = 1.5 },
		func(s *Spec) { s.DocSizes = nil },
		func(s *Spec) { s.Phases = nil },
		func(s *Spec) { s.Popularity = "parabolic" },
		func(s *Spec) { s.Dataset = "moondust" },
		func(s *Spec) { s.Phases = []Phase{{Name: "x"}} }, // no duration
	}
	for i, mutate := range bad {
		s := DefaultSpec()
		s.Phases = []Phase{{Name: "steady", Duration: time.Second}}
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: bad spec validated", i)
		}
	}
}

// TestPlanDeterminism is the acceptance criterion: two runs with the same
// seed produce the same workload sequence — the same filter pool, the same
// subscriber assignments, the same document pool, and the same publish and
// churn draw sequences.
func TestPlanDeterminism(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 42
	spec.DurableRatio = 0.25
	spec.DocSizes = []SizeClass{{Bytes: 1024, Weight: 3}, {Bytes: 8192, Weight: 1}}
	spec.Phases = []Phase{{Name: "steady", Duration: time.Second}}

	a, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Filters, b.Filters) {
		t.Fatal("filter pools differ across same-seed builds")
	}
	if !reflect.DeepEqual(a.Subs, b.Subs) {
		t.Fatal("subscriber assignments differ across same-seed builds")
	}
	if !reflect.DeepEqual(a.Docs, b.Docs) {
		t.Fatal("document pools differ across same-seed builds")
	}
	da, db := a.newDocPicker(), b.newDocPicker()
	for i := 0; i < 1000; i++ {
		c1, d1 := da.next()
		c2, d2 := db.next()
		if c1 != c2 || d1 != d2 {
			t.Fatalf("publish draw %d diverged: (%d,%d) vs (%d,%d)", i, c1, d1, c2, d2)
		}
	}
	ca, err := a.newChurnPicker()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.newChurnPicker()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s1, f1, _ := ca.next()
		s2, f2, _ := cb.next()
		if s1 != s2 || f1 != f2 {
			t.Fatalf("churn draw %d diverged", i)
		}
	}

	// A different seed must actually change the workload.
	spec.Seed = 43
	c, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Subs, c.Subs) && reflect.DeepEqual(a.Filters, c.Filters) {
		t.Fatal("seed 42 and 43 built identical plans")
	}
}

func TestPlanShape(t *testing.T) {
	spec := DefaultSpec()
	spec.Subscribers = 120
	spec.Filters = 30
	spec.DurableRatio = 0.5
	spec.DocSizes = []SizeClass{{Bytes: 4096, Weight: 1}}
	spec.DocPool = 8
	spec.Phases = []Phase{{Name: "steady", Duration: time.Second}}
	p, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Filters) != 30 || len(p.Subs) != 120 {
		t.Fatalf("pool sizes: %d filters, %d subs", len(p.Filters), len(p.Subs))
	}
	durables := 0
	for _, s := range p.Subs {
		if s.Filter < 0 || s.Filter >= 30 {
			t.Fatalf("filter index %d out of pool", s.Filter)
		}
		if s.Durable {
			durables++
			if s.Conn >= spec.DurableConnections {
				t.Fatalf("durable conn %d out of range", s.Conn)
			}
		} else if s.Conn >= spec.Connections {
			t.Fatalf("ephemeral conn %d out of range", s.Conn)
		}
	}
	// DurableRatio 0.5 over 120 subscribers: expect a real mix.
	if durables < 30 || durables > 90 {
		t.Fatalf("durables = %d of 120, want near 60", durables)
	}
	// Documents are padded to at least the class size.
	for _, doc := range p.Docs[0] {
		if len(doc) < 4096 {
			t.Fatalf("doc of %d bytes under 4096 class", len(doc))
		}
	}
}

func TestDocTagRoundTrip(t *testing.T) {
	doc := []byte("<doc><a/></doc>")
	tagged := appendDocTag(nil, 2, 123456789*time.Nanosecond, doc)
	ph, intended, ok := parseDocTag(tagged)
	if !ok || ph != 2 || intended != 123456789 {
		t.Fatalf("round trip: ok=%v phase=%d intended=%d", ok, ph, intended)
	}
	if !strings.HasSuffix(string(tagged), string(doc)) {
		t.Fatal("tag clobbered the document")
	}
	if _, _, ok := parseDocTag(doc); ok {
		t.Fatal("untagged doc parsed as tagged")
	}
	if _, _, ok := parseDocTag([]byte("<!--xpl:pxyz-->")); ok {
		t.Fatal("garbage tag parsed")
	}
}

// TestRunnerEndToEnd drives a miniature zipfian+durable+churn scenario
// against a real broker over TCP — the whole harness stack: plan, connect,
// open-loop publish, churn, reconnect storm, measurement.
func TestRunnerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	base := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: filepath.Join(base, "wal"), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cs, err := wal.OpenCursorStore(filepath.Join(base, "cursors"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", WAL: server.WrapWAL(l), Cursors: cs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	spec := DefaultSpec()
	spec.Name = "e2e"
	spec.Seed = 11
	spec.Subscribers = 60
	spec.Filters = 20
	spec.DurableRatio = 0.25
	spec.Connections = 4
	spec.DurableConnections = 2
	spec.Rate = 300
	spec.DocSizes = []SizeClass{{Bytes: 1024, Weight: 3}, {Bytes: 4096, Weight: 1}}
	spec.DocPool = 8
	spec.ReportInterval = 250 * time.Millisecond
	spec.Phases = []Phase{
		{Name: "steady", Duration: 700 * time.Millisecond},
		{Name: "churn", Duration: 700 * time.Millisecond, ChurnRate: 40, ReconnectRate: 4},
	}
	plan, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var logs strings.Builder
	res, err := (&Runner{Plan: plan, Addr: srv.Addr(), Log: &logs}).Run(ctx)
	if err != nil {
		t.Fatalf("run: %v\nprogress:\n%s", err, logs.String())
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	steady, churn := res.Phases[0], res.Phases[1]
	if steady.Published == 0 || churn.Published == 0 {
		t.Fatalf("no publishes: %+v", res.Phases)
	}
	if steady.AckErrors != 0 || churn.AckErrors != 0 {
		t.Fatalf("ack errors: steady=%d churn=%d", steady.AckErrors, churn.AckErrors)
	}
	total := steady.Deliveries + churn.Deliveries
	if total == 0 {
		t.Fatal("no deliveries measured")
	}
	if steady.PubAck.Count == 0 || steady.PubAck.P99 <= 0 {
		t.Fatalf("pub-ack summary empty: %+v", steady.PubAck)
	}
	if steady.Delivery.Count == 0 || steady.Delivery.P999 < steady.Delivery.P50 {
		t.Fatalf("delivery summary broken: %+v", steady.Delivery)
	}
	if churn.ChurnOps == 0 {
		t.Fatal("churn phase performed no churn ops")
	}
	if churn.Reconnects == 0 {
		t.Fatal("churn phase performed no reconnect storms")
	}
	if steady.Errors != 0 {
		t.Fatalf("steady phase errors: %d", steady.Errors)
	}
	// Durable subscribers existed, so some deliveries must be durable.
	if steady.DurableDeliveries+churn.DurableDeliveries == 0 {
		t.Fatal("durable mix produced no durable deliveries")
	}
	if !strings.Contains(logs.String(), "steady") {
		t.Fatalf("progress log missing phase name:\n%s", logs.String())
	}
}

// TestPublisherConnectionLossCountsAckErrors: a broker that reads a few
// documents and drops the publisher connection leaves every document then
// in flight counted as an ack error, none lost from both columns.
func TestPublisherConnectionLossCountsAckErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		for i := 0; i < 5; i++ {
			if _, err := server.ReadFrame(nc, 1<<20); err != nil {
				return
			}
		}
	}()

	spec := DefaultSpec()
	spec.Subscribers, spec.Filters, spec.DocPool = 4, 4, 4
	spec.Phases = []Phase{{Name: "steady", Duration: time.Second}}
	plan, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := &runState{
		r:        &Runner{Plan: plan},
		epoch:    time.Now(),
		measures: []*measure{{}},
		docs:     plan.newDocPicker(),
	}
	pub, err := client.Dial(ln.Addr().String(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pipe, err := pub.PublishPipelined(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m := st.measures[0]
	if err := st.publishLoop(ctx, 0, 5000, pipe, m); err == nil {
		t.Fatal("publish loop outlived its connection")
	}
	if err := pipe.Close(); err == nil {
		t.Fatal("pipeline closed cleanly after losing its connection")
	}
	published, ackErrs := m.published.Load(), m.ackErrors.Load()
	if published < 5 || ackErrs != published {
		t.Fatalf("published %d, ack errors %d; want every in-flight document (at least 5) counted", published, ackErrs)
	}
}
