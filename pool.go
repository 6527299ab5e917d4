package xpushstream

import (
	"errors"
	"io"
	"runtime"
	"sync"

	"repro/internal/sax"
)

// Pool filters one stream of independent documents on n goroutines over one
// engine: a splitter cuts the reader into documents, the workers run them
// through Engine.FilterDocument — which is itself safe for concurrent use, so
// callers with documents already in hand need no Pool — and one collector
// delivers the results. The workers share the engine's warm tables; nothing
// is cloned or warmed per worker.
type Pool struct {
	e *Engine
	n int
}

// NewPool returns a pool of n workers over the engine (n <= 0 selects
// GOMAXPROCS).
func NewPool(e *Engine, n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{e: e, n: n}
}

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
// workers concurrently, invoking onResult for each document from a single
// collector goroutine. The first document-level error stops the stream: the
// splitter stops reading and no further documents are submitted (documents
// already in flight on other workers still deliver their results).
func (p *Pool) FilterStream(r io.Reader, onResult func(Result)) error {
	type job struct {
		seq int
		doc []byte
	}
	// Two documents queued per worker keep the workers busy while the
	// splitter reads ahead, and the collector from stalling them.
	jobs := make(chan job, 2*p.n)
	results := make(chan Result, 2*p.n)
	stop := make(chan struct{}) // closed by the collector on the first error

	var wg sync.WaitGroup
	for i := 0; i < p.n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				m, err := p.e.FilterDocument(j.doc)
				results <- Result{Seq: j.seq, Matches: m, Err: err}
			}
		}()
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
