package main

import (
	"time"

	xpushstream "repro"
)

// system is what the phase runner drives: the in-process engine or a broker
// with its two connections.
type system interface {
	// run performs one round of pool documents in order — closed loop when
	// pc is nil, open loop on pc's schedule otherwise — and returns when the
	// last one has completed. With timed set it keeps per-document
	// timestamps for latencies and spans to read.
	run(docs []uint16, pc *pacer, timed bool) error
	// latenciesMS appends the last timed round's intended-start-to-
	// completion latencies.
	latenciesMS(dst []float64) []float64
	// spans records the first n documents of the last timed round in log.
	spans(log *spanLog, n int)
	// addFilter adds one filter to the loaded, warm system (and takes it
	// away again where that is a separate operation) and returns how long
	// the addition took.
	addFilter(i int) (time.Duration, error)
	// machine reports the live filter machine's counters.
	machine() machineInfo
	close()
}

// machineInfo is the live engine's state as seen from outside.
type machineInfo struct {
	States, Layers int
	HitRatio       float64
	MemMB          float64
	Consolidations float64
}

// engineSys is the engine-filter workload: Compile, then FilterBytes in the
// calling goroutine. No network, no WAL.
type engineSys struct {
	p *plan
	o *oracle
	t *tally
	e *xpushstream.Engine

	got        int // matches reported for the document in flight
	start, end []time.Duration
	due        []time.Duration
}

// bootEngine is the engine workload's set-up: compile the filters and run
// cold passes over the pool until the lazy machine stops growing.
func bootEngine(p *plan, o *oracle, t *tally) (*engineSys, error) {
	e, err := xpushstream.Compile(p.Filters, xpushstream.Config{})
	if err != nil {
		return nil, err
	}
	s := &engineSys{p: p, o: o, t: t, e: e}
	if err := coldPasses(p, s, func() int { return e.Stats().States }); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *engineSys) run(docs []uint16, pc *pacer, timed bool) error {
	timed = timed || pc != nil
	if timed {
		s.due = make([]time.Duration, len(docs))
		s.start = make([]time.Duration, len(docs))
		s.end = make([]time.Duration, len(docs))
	}
	count := func(m []int) { s.got = len(m) }
	for i, d := range docs {
		if pc != nil {
			s.due[i] = pc.wait(i)
		}
		if timed {
			s.start[i] = clock()
			if pc == nil {
				s.due[i] = s.start[i]
			}
		}
		s.got = -1
		err := s.e.FilterBytes(s.p.Docs[d], count)
		if timed {
			s.end[i] = clock()
		}
		s.t.attempted.Add(1)
		if err != nil {
			s.t.failf("FilterBytes doc %d: %v", d, err)
			return err
		}
		if want := len(s.o.match[d]); s.got != want {
			s.t.failf("doc %d matched %d filters, oracle expects %d", d, s.got, want)
		}
	}
	return nil
}

func (s *engineSys) latenciesMS(dst []float64) []float64 {
	for i := range s.end {
		dst = append(dst, ms(s.end[i]-s.due[i]))
	}
	return dst
}

func (s *engineSys) spans(log *spanLog, n int) {
	for i := range s.end[:min(n, len(s.end))] {
		root := log.add("doc", s.due[i], s.end[i], 0, int64(i))
		log.add("FilterBytes", s.start[i], s.end[i], root, int64(i))
	}
}

func (s *engineSys) addFilter(i int) (time.Duration, error) {
	s.t.attempted.Add(1)
	t0 := clock()
	next, err := s.e.WithQueries([]string{s.p.Extra[i%len(s.p.Extra)]})
	d := clock() - t0
	if err != nil {
		s.t.failf("WithQueries: %v", err)
		return d, err
	}
	if next.NumQueries() != s.e.NumQueries()+1 {
		s.t.failf("WithQueries returned %d queries, want %d", next.NumQueries(), s.e.NumQueries()+1)
	}
	return d, nil
}

func (s *engineSys) machine() machineInfo {
	st := s.e.Stats()
	return machineInfo{
		States: st.States, Layers: s.e.NumLayers(), HitRatio: st.HitRatio,
		MemMB: float64(s.e.ApproxMemoryBytes()) / (1 << 20),
	}
}

func (s *engineSys) close() {}
