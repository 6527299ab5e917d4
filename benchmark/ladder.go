package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	xpushstream "repro"
	"repro/client"
	"repro/internal/sax"
	registry "repro/internal/workload"
	"repro/internal/xpath"
	"repro/server"
	"repro/wal"
)

// The ladder prices every layer above the byte scanner from outside: each
// rung times calls into one layer's public functions on the workload's own
// documents, filters and match sets. Rungs are short (a few pool passes) —
// they are read as shares of a whole, not compared within a tenth.

// rungPasses is how many pool replays a per-document rung times.
const rungPasses = 4

// rung is one row of the ladder table: a layer's per-document cost on this
// workload, 0 when the workload does not pass through the layer.
type rung struct {
	Name string
	NS   float64 // per document
}

// perDoc times fn over rungPasses replays of the pool and returns ns per
// document and heap allocations per document.
func perDoc(p *plan, fn func(d int, doc []byte)) (ns, allocs float64) {
	runtime.GC()
	m0, t0 := readMem(), time.Now()
	n := 0
	for pass := 0; pass < rungPasses; pass++ {
		for _, d := range p.Order {
			fn(int(d), p.Docs[d])
			n++
		}
	}
	el := time.Since(t0)
	return float64(el.Nanoseconds()) / float64(n), float64(readMem().mallocs-m0.mallocs) / float64(n)
}

// nopHandler is the scanner rung's sink.
type nopHandler struct{}

func (nopHandler) StartDocument()           {}
func (nopHandler) StartElementBytes([]byte) {}
func (nopHandler) TextBytes([]byte)         {}
func (nopHandler) EndElementBytes([]byte)   {}
func (nopHandler) EndDocument()             {}

// ladder runs every document-level rung and fills res.Layers; it returns the
// rows the reconciliation table is built from.
func ladder(p *plan, o *oracle, res *result, log *spanLog) error {
	L := res.Layers
	w := p.W
	var docBytes int
	for _, d := range p.Docs {
		docBytes += len(d)
	}
	meanBytes := float64(docBytes) / float64(len(p.Docs))

	// internal/sax: the floor.
	var scanErr error
	scanNS, scanAllocs := perDoc(p, func(_ int, doc []byte) {
		if err := sax.ParseBytes(doc, nopHandler{}); err != nil {
			scanErr = err
		}
	})
	if scanErr != nil {
		return fmt.Errorf("scan rung: %w", scanErr)
	}
	L["sax.scan_ns_per_doc"] = scanNS
	L["sax.scan_mb_per_s"] = meanBytes / scanNS * 1e9 / (1 << 20)
	L["sax.allocs_per_doc"] = scanAllocs

	// xpushstream: compile and cold pass on a fresh engine, warm filtering
	// on the oracle's (already warm) one.
	t0 := time.Now()
	cold, err := xpushstream.Compile(p.Filters, xpushstream.Config{})
	if err != nil {
		return err
	}
	L["engine.compile_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	for _, d := range p.Order {
		if err := cold.FilterBytes(p.Docs[d], func([]int) {}); err != nil {
			return err
		}
	}
	L["engine.cold_ns_per_doc"] = float64(time.Since(t0).Nanoseconds()) / float64(len(p.Order))
	var matches int
	var filterErr error
	filterNS, filterAllocs := perDoc(p, func(_ int, doc []byte) {
		if err := o.engine.FilterBytes(doc, func(m []int) { matches += len(m) }); err != nil {
			filterErr = err
		}
	})
	if filterErr != nil {
		return fmt.Errorf("filter rung: %w", filterErr)
	}
	L["engine.filter_ns_per_doc"] = filterNS
	L["engine.machine_self_ns_per_doc"] = filterNS - scanNS
	L["engine.allocs_per_doc"] = filterAllocs
	L["engine.matches_per_doc"] = float64(matches) / float64(rungPasses*len(p.Order))

	// Control plane: one COW layer, one consolidation, one canonicalisation.
	var withUS []float64
	layered := o.engine
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if _, err := o.engine.WithQueries([]string{p.Extra[i]}); err != nil {
			return err
		}
		withUS = append(withUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if i < 8 {
			var err error
			if layered, err = layered.WithQueries([]string{p.Extra[i]}); err != nil {
				return err
			}
		}
	}
	L["engine.with_queries_us_p50"] = percentile(withUS, 0.5)
	t0 = time.Now()
	if _, _, err := layered.Consolidated(); err != nil {
		return err
	}
	L["engine.consolidated_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	for _, q := range p.Filters {
		if _, err := xpath.Canonicalize(q); err != nil {
			return err
		}
	}
	L["xpath.canon_ns_per_filter"] = float64(time.Since(t0).Nanoseconds()) / float64(len(p.Filters))

	// internal/workload: the dedup registry resolving recorded match sets to
	// subscriptions, as the broker's fan-out does.
	reg := registry.NewDedup[int]()
	keys := make([]uint64, len(p.Filters))
	for f, q := range p.Filters {
		canon, err := xpath.Canonicalize(q)
		if err != nil {
			return err
		}
		if key, ok := reg.Resolve(canon); ok {
			keys[f] = key
		} else {
			keys[f] = reg.Register(canon, true)
			if w.Preload {
				reg.Pin(keys[f])
			}
		}
	}
	// ids[d] are the subscription ids document d is delivered to; the frame
	// rung encodes them.
	subsOf := make([][]uint64, len(p.Filters))
	for slot, f := range p.Subs {
		id, _ := reg.Subscribe(keys[f], slot, false)
		subsOf[f] = append(subsOf[f], id)
	}
	docKeys := make([][]uint64, len(p.Docs))
	ids := make([][]uint64, len(p.Docs))
	for d, m := range o.match {
		for _, f := range m {
			docKeys[d] = append(docKeys[d], keys[f])
			ids[d] = append(ids[d], subsOf[f]...)
		}
	}
	var deliveries int
	fanNS, _ := perDoc(p, func(d int, _ []byte) {
		reg.Fanout(docKeys[d], func(_ uint64, _ bool, nsubs int, _ uint64, _ int, _ bool) {
			if nsubs > 0 {
				deliveries++
			}
		})
	})
	L["registry.fanout_ns_per_doc"] = fanNS
	L["registry.deliveries_per_doc"] = float64(deliveries) / float64(rungPasses*len(p.Order))
	L["registry.unique_queries"] = float64(reg.UniqueQueries())
	if n := reg.Subscriptions(); n > 0 {
		L["registry.dedup_hit_ratio"] = float64(reg.Hits()) / float64(n)
	}

	// server/frame.go: one DELIVER frame per document through a buffer.
	var buf bytes.Buffer
	var payload []byte
	var frameErr error
	frames := make([][]byte, len(p.Docs))
	encNS, _ := perDoc(p, func(d int, doc []byte) {
		buf.Reset()
		payload = server.AppendDeliverPayload(payload[:0], ids[d], doc)
		if err := server.WriteFrame(&buf, server.FrameDeliver, payload); err != nil {
			frameErr = err
		}
		if frames[d] == nil {
			frames[d] = append([]byte(nil), buf.Bytes()...)
		}
	})
	var rd bytes.Reader
	var frameBytes int
	decNS, _ := perDoc(p, func(d int, _ []byte) {
		rd.Reset(frames[d])
		f, err := server.ReadFrame(&rd, 64<<20)
		if err == nil {
			_, _, err = server.ParseDeliverPayload(f.Payload)
		}
		if err != nil {
			frameErr = err
		}
		frameBytes += len(frames[d])
	})
	if frameErr != nil {
		return fmt.Errorf("frame rung: %w", frameErr)
	}
	L["frame.encode_ns_per_doc"] = encNS
	L["frame.decode_ns_per_doc"] = decNS
	L["frame.bytes_per_doc"] = float64(frameBytes) / float64(rungPasses*len(p.Order))

	if err := walRungs(p, L); err != nil {
		return err
	}
	if err := floorRung(p, L); err != nil {
		return err
	}

	// One traced pass: every outside call of the pipeline on each pool
	// document under one root span, so the Chrome trace shows the ladder
	// per document and selfTimes cross-checks the bulk numbers.
	for _, d := range p.Order {
		doc := p.Docs[d]
		t := [6]time.Duration{clock()}
		sax.ParseBytes(doc, nopHandler{})
		t[1] = clock()
		o.engine.FilterBytes(doc, func([]int) {})
		t[2] = clock()
		reg.Fanout(docKeys[d], func(uint64, bool, int, uint64, int, bool) {})
		t[3] = clock()
		buf.Reset()
		payload = server.AppendDeliverPayload(payload[:0], ids[d], doc)
		server.WriteFrame(&buf, server.FrameDeliver, payload)
		t[4] = clock()
		if f, err := server.ReadFrame(&buf, 64<<20); err == nil {
			server.ParseDeliverPayload(f.Payload)
		}
		t[5] = clock()
		root := log.add("ladder", t[0], t[5], 0, int64(d))
		for i, name := range []string{"scan", "filter", "fanout", "encode", "decode"} {
			log.add(name, t[i], t[i+1], root, int64(d))
		}
	}
	return nil
}

// layeredFilter times warm filtering on the oracle's engine with layers-1
// single-filter COW layers stacked on it — the shape the churn workload's
// live engine has between consolidations.
func layeredFilter(p *plan, o *oracle, layers int) (float64, error) {
	e := o.engine
	for i := 1; i < layers; i++ {
		var err error
		if e, err = e.WithQueries([]string{p.Extra[i%len(p.Extra)]}); err != nil {
			return 0, err
		}
	}
	var filterErr error
	warm := func(_ int, doc []byte) {
		if err := e.FilterBytes(doc, func([]int) {}); err != nil {
			filterErr = err
		}
	}
	perDoc(p, warm)
	ns, _ := perDoc(p, warm)
	return ns, filterErr
}

// walRungs prices the log alone: append at each fsync policy, group commit
// under two concurrent appenders, and the replay read.
func walRungs(p *plan, L map[string]float64) error {
	open := func(policy wal.FsyncPolicy) (*wal.Log, string, error) {
		dir, err := os.MkdirTemp(scratchDir, "rung-wal-")
		if err != nil {
			return nil, "", err
		}
		l, err := wal.Open(wal.Options{Dir: dir, Fsync: policy})
		if err != nil {
			os.RemoveAll(dir)
		}
		return l, dir, err
	}
	for _, pol := range []struct {
		policy wal.FsyncPolicy
		docs   int // fsync=always pays a disk flush per append
	}{{wal.FsyncNever, 2 * poolDocs}, {wal.FsyncInterval, 2 * poolDocs}, {wal.FsyncAlways, 128}} {
		l, dir, err := open(pol.policy)
		if err != nil {
			return err
		}
		var us []float64
		for i := 0; i < pol.docs; i++ {
			t0 := time.Now()
			if _, err := l.Append(p.Docs[p.Order[i%poolDocs]]); err != nil {
				l.Close()
				os.RemoveAll(dir)
				return fmt.Errorf("wal append (%s): %w", pol.policy, err)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		L["wal.append_us_p50."+string(pol.policy)] = percentile(us, 0.5)
		if pol.policy == wal.FsyncInterval {
			st := l.Stats()
			L["wal.bytes_per_doc"] = float64(st.Bytes) / float64(st.Appends)
			// The replay read: the durable pump's first step per document.
			r, err := l.OpenReader(0)
			if err != nil {
				return err
			}
			t0 := time.Now()
			n := 0
			for {
				if _, _, err := r.Next(); err == io.EOF {
					break
				} else if err != nil {
					return fmt.Errorf("wal read: %w", err)
				}
				n++
			}
			L["wal.read_ns_per_doc"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
			r.Close()
		}
		l.Close()
		os.RemoveAll(dir)
	}

	// Group commit: two appenders share fsyncs.
	l, dir, err := open(wal.FsyncAlways)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer l.Close()
	const each = 192
	var wg sync.WaitGroup
	errs := make([]error, 2)
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.AppendAsync(p.Docs[p.Order[(g*each+i)%poolDocs]]).Wait(); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("wal group commit: %w", err)
		}
	}
	L["wal.append_docs_per_s.always"] = 2 * each / time.Since(t0).Seconds()
	L["wal.batch_size_mean"] = l.BatchSizes().Mean()
	L["wal.fsyncs"] = float64(l.Stats().Syncs)
	return nil
}

// floorRung is the loopback floor: a broker with no filter and no
// subscriber. Synchronous publishes give the round trip, pipelined ones the
// CPU a document costs the session layer, client and TCP alone.
func floorRung(p *plan, L map[string]float64) error {
	srv, err := server.New(server.Config{Policy: server.Block})
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr(), client.Options{})
	if err != nil {
		return err
	}
	defer c.Close()
	var us []float64
	for i := 0; i < 2*poolDocs; i++ {
		t0 := time.Now()
		if _, err := c.Publish(p.Docs[p.Order[i%poolDocs]]); err != nil {
			return fmt.Errorf("floor publish: %w", err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	L["server.pub_rtt_us_p50"] = percentile(us, 0.5)

	pipe, err := c.PublishPipelined(window, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	cpu0 := cpuTime()
	n := 0
	for pass := 0; pass < rungPasses; pass++ {
		for _, d := range p.Order {
			if _, err := pipe.Publish(p.Docs[d]); err != nil {
				return fmt.Errorf("floor pipeline: %w", err)
			}
			n++
		}
	}
	if err := pipe.Close(); err != nil {
		return err
	}
	L["server.floor_cpu_us_per_doc"] = float64((cpuTime() - cpu0).Microseconds()) / float64(n)
	return nil
}
