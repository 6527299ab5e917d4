package xpushstream

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/sax"
)

// Pool parallelises filtering over documents: n cloned engines consume a
// shared document queue, giving near-linear throughput scaling for streams
// of independent documents. This is the recommended multicore deployment —
// the warm machine's O(1)-per-event cost makes workload sharding pointless
// (EXPERIMENTS.md), but documents are embarrassingly parallel.
//
// Clones do not share lazily built state: each worker warms up
// independently (or restore a shared snapshot into each clone before
// starting).
type Pool struct {
	engines []*Engine
	// free is the idle-worker list for FilterDocument; FilterStream drives
	// the workers directly instead.
	free chan *Engine
}

// NewPool builds a pool of n clones of the engine (n <= 0 selects
// GOMAXPROCS). The source engine itself is not used by the pool.
func NewPool(e *Engine, n int) (*Pool, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{free: make(chan *Engine, n)}
	for i := 0; i < n; i++ {
		c, err := e.Clone()
		if err != nil {
			return nil, fmt.Errorf("clone %d: %w", i, err)
		}
		p.engines = append(p.engines, c)
		p.free <- c
	}
	return p, nil
}

// FilterDocument filters one document on an idle worker engine, blocking
// while all workers are busy. Unlike Engine.FilterDocument it is safe to
// call from many goroutines at once — the request/response deployment shape
// (e.g. a broker's publisher connections), complementing FilterStream's
// single-reader shape. Do not run it concurrently with FilterStream, which
// takes over every worker.
func (p *Pool) FilterDocument(doc []byte) ([]int, error) {
	return p.FilterDocumentTraced(doc, nil, TraceRoot)
}

// Size returns the worker count.
func (p *Pool) Size() int { return len(p.engines) }

// Result is one document's filtering outcome. Seq is the document's
// position in the stream (0-based); results are delivered in arbitrary
// order.
type Result struct {
	Seq     int
	Matches []int
	Err     error
}

// errPoolStopped is the sentinel the split callback returns to cancel the
// splitter once the collector has recorded a document-level error.
var errPoolStopped = errors.New("xpushstream: pool stream stopped after first error")

// FilterStream splits the reader into documents and filters them on all
// workers concurrently, invoking onResult (from multiple goroutines is
// avoided: results are delivered from a single collector goroutine) for
// each document. The first document-level error stops the stream: the
// splitter stops reading and no further documents are submitted (documents
// already in flight on other workers still deliver their results).
func (p *Pool) FilterStream(r io.Reader, onResult func(Result)) error {
	type job struct {
		seq int
		doc []byte
	}
	jobs := make(chan job, 2*len(p.engines))
	results := make(chan Result, 2*len(p.engines))
	stop := make(chan struct{}) // closed by the collector on the first error

	var wg sync.WaitGroup
	for _, e := range p.engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			for j := range jobs {
				m, err := e.FilterDocument(j.doc)
				results <- Result{Seq: j.seq, Matches: m, Err: err}
			}
		}(e)
	}
	collectorDone := make(chan struct{})
	var firstErr error
	go func() {
		defer close(collectorDone)
		for res := range results {
			if res.Err != nil && firstErr == nil {
				firstErr = res.Err
				close(stop)
			}
			onResult(res)
		}
	}()

	seq := 0
	splitErr := sax.StreamDocuments(r, func(doc []byte) error {
		select {
		case <-stop:
			return errPoolStopped
		default:
		}
		cp := make([]byte, len(doc))
		copy(cp, doc)
		select {
		case jobs <- job{seq: seq, doc: cp}:
			seq++
			return nil
		case <-stop:
			return errPoolStopped
		}
	})
	close(jobs)
	wg.Wait()
	close(results)
	<-collectorDone
	if splitErr != nil && splitErr != errPoolStopped {
		return splitErr
	}
	return firstErr
}

// Stats aggregates runtime counters across the pool's workers: stream
// counters (documents, events, bytes, matches) sum over the disjoint
// document sets the workers processed, state/lookup counters sum over the
// independently warmed clones, and the latency histograms merge. Safe to
// call while FilterStream runs.
func (p *Pool) Stats() Stats {
	var out Stats
	var sizeSum float64
	for _, e := range p.engines {
		s := e.Stats()
		out.States += s.States
		out.TopDownStates += s.TopDownStates
		sizeSum += s.AvgStateSize * float64(s.States)
		out.Lookups += s.Lookups
		out.Hits += s.Hits
		out.Matches += s.Matches
		out.MixedContentEvents += s.MixedContentEvents
		out.Flushes += s.Flushes
		out.Documents += s.Documents
		out.Events += s.Events
		out.Bytes += s.Bytes
		out.WindowDocuments += s.WindowDocuments
		out.WindowLookups += s.WindowLookups
		out.WindowHits += s.WindowHits
		out.WindowStatesAdded += s.WindowStatesAdded
		out.FilterLatency.Merge(s.FilterLatency)
	}
	finishStats(&out, sizeSum)
	return out
}
