package load

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/obs"
)

// Runner drives a Plan against a live broker. Addr is the broker's TCP
// address; Log (optional) receives one progress line per report interval.
type Runner struct {
	Plan *Plan
	Addr string
	Log  io.Writer
}

// Result is a completed run: per-phase counters and latency summaries.
type Result struct {
	Spec   Spec          `json:"spec"`
	Phases []PhaseResult `json:"phases"`
}

// PhaseResult reports one phase. All latencies are coordinated-omission
// safe: measured from each document's intended start under the target
// arrival rate, not from the moment the send finally went out.
type PhaseResult struct {
	Name       string  `json:"name"`
	Seconds    float64 `json:"seconds"`
	TargetRate float64 `json:"target_rate"`

	Published    uint64  `json:"published"`
	AchievedRate float64 `json:"achieved_rate"`
	AckErrors    uint64  `json:"ack_errors"`

	Deliveries        uint64 `json:"deliveries"`
	DurableDeliveries uint64 `json:"durable_deliveries"`

	ChurnOps   uint64 `json:"churn_ops"`
	Reconnects uint64 `json:"reconnects"`
	Errors     uint64 `json:"errors"`

	// MaxSchedLagMs is the worst lateness of the open-loop scheduler itself
	// (intended start vs. actual send). Large values mean the generator — not
	// the broker — was the bottleneck, and the latency percentiles carry
	// that lag; report it so a saturated-generator run is not mistaken for a
	// slow broker.
	MaxSchedLagMs float64 `json:"max_sched_lag_ms"`

	// Latencies, in seconds.
	PubAck   obs.Summary `json:"pub_ack"`
	Delivery obs.Summary `json:"delivery"`
}

// Failed reports whether the phase saw any broker or harness errors.
func (p PhaseResult) Failed() bool { return p.AckErrors+p.Errors > 0 }

// measure accumulates one phase's observations. Deliveries are attributed
// to the phase that published the document (carried in the doc tag), so a
// document published at the end of phase N and delivered during phase N+1
// still lands in N's histogram.
type measure struct {
	pubAck obs.Histogram
	e2e    obs.Histogram

	published         atomic.Uint64
	ackErrors         atomic.Uint64
	deliveries        atomic.Uint64
	durableDeliveries atomic.Uint64
	churnOps          atomic.Uint64
	reconnects        atomic.Uint64
	errors            atomic.Uint64
	maxLagNanos       atomic.Int64

	seconds float64 // actual elapsed, set at phase end
}

func (m *measure) noteLag(lag time.Duration) {
	v := int64(lag)
	for {
		old := m.maxLagNanos.Load()
		if v <= old || m.maxLagNanos.CompareAndSwap(old, v) {
			return
		}
	}
}

// connSlot is one subscriber connection. Its mutex serializes structural
// changes (churn resubscribes, reconnect storms) against each other; the
// delivery path never takes it (handlers reach the current client through
// the atomic pointer, so a reconnect cannot deadlock against its own
// read loop).
type connSlot struct {
	mu      sync.Mutex
	cc      atomic.Pointer[client.Client]
	durable bool
	name    string         // durable connections: the broker-side durable name
	subs    map[int]uint64 // subscriber index -> live subscription id
}

type runState struct {
	r     *Runner
	ctx   context.Context // whole-run context (reconnect dials outlive phases)
	epoch time.Time

	measures []*measure
	curPhase atomic.Int32

	// Run-wide histograms double-record every observation so the interval
	// reporter can window across phase boundaries.
	allPubAck obs.Histogram
	allE2E    obs.Histogram

	ephSlots []*connSlot
	durSlots []*connSlot
	subSlot  []*connSlot // per subscriber index
	// subFilter is each subscriber's current filter (churn moves it);
	// guarded by the subscriber's slot mutex.
	subFilter []int

	docs  *docPicker
	churn *churnPicker
}

// Run executes every phase of the plan against the broker and returns the
// per-phase results. It returns an error only when the run could not be
// carried out (setup failure, publisher connection lost); broker-side
// per-document failures are counted in the results instead.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	plan := r.Plan
	st := &runState{
		r:         r,
		ctx:       ctx,
		measures:  make([]*measure, len(plan.Spec.Phases)),
		subSlot:   make([]*connSlot, len(plan.Subs)),
		subFilter: make([]int, len(plan.Subs)),
		docs:      plan.newDocPicker(),
	}
	for i := range st.measures {
		st.measures[i] = &measure{}
	}
	var err error
	if st.churn, err = plan.newChurnPicker(); err != nil {
		return nil, err
	}

	if err := st.connect(); err != nil {
		st.closeSlots()
		return nil, err
	}
	defer st.closeSlots()

	// The publisher rides its own connection so subscriber fan-out cannot
	// head-of-line-block publish acks.
	pub, err := client.DialRetry(ctx, r.Addr, client.Options{Timeout: 30 * time.Second}, client.Backoff{})
	if err != nil {
		return nil, fmt.Errorf("load: dial publisher: %w", err)
	}
	defer pub.Close()
	pipe, err := pub.PublishPipelined(plan.Spec.Window, nil)
	if err != nil {
		return nil, err
	}

	st.epoch = time.Now()
	reportDone := make(chan struct{})
	var reportWG sync.WaitGroup
	if r.Log != nil {
		reportWG.Add(1)
		go func() { defer reportWG.Done(); st.reportLoop(reportDone) }()
	}

	var runErr error
	for i := range plan.Spec.Phases {
		st.curPhase.Store(int32(i))
		if err := st.runPhase(i, pipe); err != nil {
			runErr = err
			break
		}
		if ctx.Err() != nil {
			runErr = ctx.Err()
			break
		}
	}

	// Drain the pipeline window, then give trailing deliveries a moment to
	// land before snapshotting.
	if err := pipe.Close(); err != nil && runErr == nil {
		runErr = err
	}
	time.Sleep(250 * time.Millisecond)
	close(reportDone)
	reportWG.Wait()

	if runErr != nil {
		return nil, runErr
	}
	return st.collect(), nil
}

// connect dials every subscriber connection and establishes the planned
// subscriptions, parallel across connections.
func (st *runState) connect() error {
	plan := st.r.Plan
	st.ephSlots = make([]*connSlot, plan.Spec.Connections)
	st.durSlots = make([]*connSlot, plan.Spec.DurableConnections)
	for i := range st.ephSlots {
		st.ephSlots[i] = &connSlot{subs: make(map[int]uint64)}
	}
	for i := range st.durSlots {
		st.durSlots[i] = &connSlot{durable: true, name: plan.DurableName(i), subs: make(map[int]uint64)}
	}
	for i, sub := range plan.Subs {
		slot := st.ephSlots[sub.Conn]
		if sub.Durable {
			slot = st.durSlots[sub.Conn]
		}
		st.subSlot[i] = slot
		st.subFilter[i] = sub.Filter
		slot.subs[i] = 0 // id filled in below
	}

	slots := append(append([]*connSlot(nil), st.ephSlots...), st.durSlots...)
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	for si, slot := range slots {
		wg.Add(1)
		go func(si int, slot *connSlot) {
			defer wg.Done()
			if err := st.dialSlot(slot); err != nil {
				errs[si] = err
				return
			}
			c := slot.cc.Load()
			for sub := range slot.subs {
				id, err := st.subscribe(c, slot, sub)
				if err != nil {
					errs[si] = fmt.Errorf("subscriber %d: %w", sub, err)
					return
				}
				slot.subs[sub] = id
			}
		}(si, slot)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("load: connect: %w", err)
		}
	}
	return nil
}

// subscribe establishes subscriber sub's current filter on c. Durable
// slots subscribe under the connection's stable durable name (the broker
// scopes one name and replay cursor per connection), so a reconnecting
// durable slot resumes where its acks left off.
func (st *runState) subscribe(c *client.Client, slot *connSlot, sub int) (uint64, error) {
	xp := st.r.Plan.Filters[st.subFilter[sub]]
	if slot.durable {
		id, _, err := c.SubscribeDurable(slot.name, xp)
		return id, err
	}
	return c.Subscribe(xp)
}

// dialSlot (re)establishes a slot's connection with retry and installs the
// measuring delivery handler.
func (st *runState) dialSlot(slot *connSlot) error {
	c, err := client.DialRetry(st.ctx, st.r.Addr, client.Options{
		OnDeliver: st.deliverHandler(slot),
		Timeout:   30 * time.Second,
	}, client.Backoff{Probe: func(c *client.Client) error { return c.Ping() }})
	if err != nil {
		return err
	}
	slot.cc.Store(c)
	return nil
}

// deliverHandler records end-to-end latency from the doc tag's intended
// start and acks durable deliveries. It runs on the connection's read loop
// and takes no slot lock.
func (st *runState) deliverHandler(slot *connSlot) func(client.Delivery) {
	return func(d client.Delivery) {
		now := time.Since(st.epoch)
		if d.Durable {
			if c := slot.cc.Load(); c != nil {
				c.Ack(d.Offset)
			}
		}
		phase, intended, ok := parseDocTag(d.Doc)
		if !ok || phase < 0 || phase >= len(st.measures) {
			return
		}
		m := st.measures[phase]
		m.deliveries.Add(uint64(len(d.Filters)))
		if d.Durable {
			m.durableDeliveries.Add(uint64(len(d.Filters)))
		}
		lat := (now - intended).Seconds()
		m.e2e.Observe(lat)
		st.allE2E.Observe(lat)
	}
}

// pubResult records one publish's ack latency from its intended start, or
// an ack error (a broker reject, or the publisher connection lost with the
// document in flight).
func (st *runState) pubResult(m *measure, intended time.Duration, res client.PublishResult) {
	if res.Err != nil {
		m.ackErrors.Add(1)
		return
	}
	lat := (time.Since(st.epoch) - intended).Seconds()
	m.pubAck.Observe(lat)
	st.allPubAck.Observe(lat)
}

// runPhase runs one phase: the open-loop publisher plus churn and
// reconnect loops for the phase's duration.
func (st *runState) runPhase(idx int, pipe *client.Pipeline) error {
	ph := st.r.Plan.Spec.Phases[idx]
	rate := ph.Rate
	if rate == 0 {
		rate = st.r.Plan.Spec.Rate
	}
	m := st.measures[idx]
	start := time.Now()
	phCtx, cancel := context.WithDeadline(st.ctx, start.Add(ph.Duration))
	defer cancel()

	var wg sync.WaitGroup
	if ph.ChurnRate > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); st.churnLoop(phCtx, ph.ChurnRate, m) }()
	}
	if ph.ReconnectRate > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); st.reconnectLoop(phCtx, ph.ReconnectRate, m) }()
	}
	err := st.publishLoop(phCtx, idx, rate, pipe, m)
	wg.Wait()
	m.seconds = time.Since(start).Seconds()
	return err
}

// publishLoop is the open-loop arrival scheduler: document i's intended
// start is phaseStart + i/rate, the loop sleeps until then (never longer),
// and every latency downstream is measured from that intended start. When
// the loop itself falls behind (window full, CPU starved) it publishes
// immediately and records the lag in MaxSchedLag.
func (st *runState) publishLoop(ctx context.Context, phase int, rate float64, pipe *client.Pipeline, m *measure) error {
	if rate <= 0 { // churn-only phase
		<-ctx.Done()
		return nil
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for n := int64(0); ; n++ {
		target := start.Add(time.Duration(n) * interval)
		if wait := time.Until(target); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return nil
			}
		} else {
			m.noteLag(-wait)
			select {
			case <-ctx.Done():
				return nil
			default:
			}
		}

		ci, di := st.docs.next()
		doc := st.r.Plan.Docs[ci][di]
		intended := target.Sub(st.epoch)
		payload := appendDocTag(nil, phase, intended, doc)

		if _, err := pipe.Submit(payload, 0, func(res client.PublishResult) {
			st.pubResult(m, intended, res)
		}); err != nil {
			return fmt.Errorf("load: publish: %w", err)
		}
		m.published.Add(1)
	}
}

// churnLoop unsubscribes a random ephemeral subscriber and resubscribes it
// to a popularity-drawn filter, ChurnRate times per second.
func (st *runState) churnLoop(ctx context.Context, rate float64, m *measure) {
	ticker := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		sub, filter, ok := st.churn.next()
		if !ok {
			return // nothing ephemeral to churn
		}
		slot := st.subSlot[sub]
		slot.mu.Lock()
		c := slot.cc.Load()
		if err := c.Unsubscribe(slot.subs[sub]); err != nil {
			m.errors.Add(1)
			slot.mu.Unlock()
			continue
		}
		id, err := c.Subscribe(st.r.Plan.Filters[filter])
		if err != nil {
			m.errors.Add(1)
			slot.mu.Unlock()
			continue
		}
		slot.subs[sub] = id
		st.subFilter[sub] = filter
		slot.mu.Unlock()
		m.churnOps.Add(1)
	}
}

// reconnectLoop storms random ephemeral connections: close outright (the
// broker sees an abrupt disconnect), redial with backoff, resubscribe
// everything the connection carried.
func (st *runState) reconnectLoop(ctx context.Context, rate float64, m *measure) {
	rng := rand.New(rand.NewSource(st.r.Plan.Spec.Seed + seedReconnect))
	ticker := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		slot := st.ephSlots[rng.Intn(len(st.ephSlots))]
		slot.mu.Lock()
		if old := slot.cc.Load(); old != nil {
			old.Close()
		}
		if err := st.dialSlot(slot); err != nil {
			m.errors.Add(1)
			slot.mu.Unlock()
			return // context is gone or the broker is unreachable
		}
		c := slot.cc.Load()
		failed := false
		for sub := range slot.subs {
			id, err := st.subscribe(c, slot, sub)
			if err != nil {
				m.errors.Add(1)
				failed = true
				continue
			}
			slot.subs[sub] = id
		}
		slot.mu.Unlock()
		if !failed {
			m.reconnects.Add(1)
		}
	}
}

// reportLoop prints one progress line per report interval, windowing the
// run-wide histograms (per-interval deltas, not cumulative smoothing).
func (st *runState) reportLoop(done <-chan struct{}) {
	iv := st.r.Plan.Spec.ReportInterval
	if iv <= 0 {
		iv = time.Second
	}
	ticker := time.NewTicker(iv)
	defer ticker.Stop()
	var prevAck, prevE2E obs.Snapshot
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		ack := st.allPubAck.Snapshot()
		e2e := st.allE2E.Snapshot()
		dAck := ack.DeltaSince(prevAck)
		dE2E := e2e.DeltaSince(prevE2E)
		prevAck, prevE2E = ack, e2e
		name := st.r.Plan.Spec.Phases[st.curPhase.Load()].Name
		fmt.Fprintf(st.r.Log,
			"%7.1fs %-8s pub %6.0f/s ack p50=%-9v p99=%-9v | deliver %7.0f/s e2e p50=%-9v p99=%-9v p99.9=%v\n",
			time.Since(st.epoch).Seconds(), name,
			float64(dAck.Count)/iv.Seconds(),
			Micros(dAck.Quantile(0.50)), Micros(dAck.Quantile(0.99)),
			float64(dE2E.Count)/iv.Seconds(),
			Micros(dE2E.Quantile(0.50)), Micros(dE2E.Quantile(0.99)), Micros(dE2E.Quantile(0.999)))
	}
}

// collect snapshots every phase into the final result.
func (st *runState) collect() *Result {
	res := &Result{Spec: st.r.Plan.Spec}
	for i, m := range st.measures {
		ph := st.r.Plan.Spec.Phases[i]
		rate := ph.Rate
		if rate == 0 {
			rate = st.r.Plan.Spec.Rate
		}
		pr := PhaseResult{
			Name:              ph.Name,
			Seconds:           m.seconds,
			TargetRate:        rate,
			Published:         m.published.Load(),
			AckErrors:         m.ackErrors.Load(),
			Deliveries:        m.deliveries.Load(),
			DurableDeliveries: m.durableDeliveries.Load(),
			ChurnOps:          m.churnOps.Load(),
			Reconnects:        m.reconnects.Load(),
			Errors:            m.errors.Load(),
			MaxSchedLagMs:     float64(m.maxLagNanos.Load()) / 1e6,
			PubAck:            m.pubAck.Snapshot().Summary(),
			Delivery:          m.e2e.Snapshot().Summary(),
		}
		if m.seconds > 0 {
			pr.AchievedRate = float64(pr.Published) / m.seconds
		}
		res.Phases = append(res.Phases, pr)
	}
	return res
}

func (st *runState) closeSlots() {
	for _, slot := range append(append([]*connSlot(nil), st.ephSlots...), st.durSlots...) {
		if c := slot.cc.Load(); c != nil {
			c.Close()
		}
	}
}

// Doc tag: every published document carries an XML comment prefix
// `<!--xpl:p<phase>:<intendedNanos>-->` holding its phase index and
// intended-start offset (nanoseconds since the run epoch). The broker
// forwards document bytes verbatim and the SAX scanner skips comments, so
// the tag rides the whole pipeline and lets any subscriber connection
// compute coordinated-omission-safe end-to-end latency without a shared
// seq map.

const docTagPrefix = "<!--xpl:p"

// appendDocTag writes the tag followed by doc into dst.
func appendDocTag(dst []byte, phase int, intended time.Duration, doc []byte) []byte {
	dst = append(dst, docTagPrefix...)
	dst = appendInt(dst, int64(phase))
	dst = append(dst, ':')
	dst = appendInt(dst, int64(intended))
	dst = append(dst, '-', '-', '>')
	return append(dst, doc...)
}

// parseDocTag extracts the phase and intended start from a tagged document.
func parseDocTag(doc []byte) (phase int, intended time.Duration, ok bool) {
	if len(doc) < len(docTagPrefix) || string(doc[:len(docTagPrefix)]) != docTagPrefix {
		return 0, 0, false
	}
	i := len(docTagPrefix)
	p, i, ok := parseInt(doc, i)
	if !ok || i >= len(doc) || doc[i] != ':' {
		return 0, 0, false
	}
	v, i, ok := parseInt(doc, i+1)
	if !ok || i+3 > len(doc) || doc[i] != '-' || doc[i+1] != '-' || doc[i+2] != '>' {
		return 0, 0, false
	}
	return int(p), time.Duration(v), true
}

func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

func parseInt(b []byte, i int) (int64, int, bool) {
	neg := false
	if i < len(b) && b[i] == '-' {
		neg, i = true, i+1
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == start {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}
