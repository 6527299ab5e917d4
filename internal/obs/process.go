package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// processStart is captured at program init so every registry exporting
// process metrics reports the same start time.
var processStart = time.Now()

// RegisterProcessMetrics adds the standard process series Prometheus needs
// for restart detection and uptime queries (`time() -
// process_start_time_seconds`, resets of the uptime gauge).
func RegisterProcessMetrics(r *Registry) {
	r.GaugeFunc("process_start_time_seconds",
		"unix time the process started", func() float64 {
			return float64(processStart.UnixNano()) / 1e9
		})
	r.GaugeFunc("process_uptime_seconds",
		"seconds since the process started", func() float64 {
			return time.Since(processStart).Seconds()
		})
	RegisterRuntimeMetrics(r)
}

// runtimeSupported reports whether the runtime/metrics name exists in this
// Go version, so the exported set degrades gracefully across toolchains.
func runtimeSupported(name string) bool {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Kind() != metrics.KindBad
}

// readRuntimeFloat reads one runtime/metrics sample as a float64 (uint64
// samples are converted). The per-scrape allocation is deliberate: scrapes
// are rare and a shared sample slice would race between concurrent scrapes.
func readRuntimeFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// runtimeHistSnapshot converts a runtime/metrics Float64Histogram into an
// obs Snapshot by attributing each runtime bucket's count to the obs bucket
// containing its midpoint (an infinite edge gives way to the finite one).
func runtimeHistSnapshot(name string) Snapshot {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	var h Histogram
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		rh := s[0].Value.Float64Histogram()
		for i, n := range rh.Counts {
			lo, hi := rh.Buckets[i], rh.Buckets[i+1]
			switch {
			case n == 0:
				continue
			case math.IsInf(lo, -1):
				lo = hi
			case math.IsInf(hi, 1):
				hi = lo
			}
			h.add(toNanos((lo+hi)/2), n)
		}
	}
	return h.Snapshot()
}

// RegisterRuntimeMetrics exports Go runtime health via runtime/metrics:
// goroutine count, heap bytes, the GC pause histogram, and the scheduler
// latency histogram. Names missing from the running toolchain are skipped.
// Called once per registry by RegisterProcessMetrics.
func RegisterRuntimeMetrics(r *Registry) {
	gauges := []struct {
		runtime, name, help string
	}{
		{"/sched/goroutines:goroutines", "go_goroutines", "number of live goroutines"},
		{"/memory/classes/heap/objects:bytes", "go_heap_objects_bytes", "bytes of allocated heap objects"},
		{"/memory/classes/total:bytes", "go_memory_total_bytes", "all memory mapped by the Go runtime"},
		{"/gc/heap/goal:bytes", "go_gc_heap_goal_bytes", "heap size target of the next GC cycle"},
	}
	for _, g := range gauges {
		if !runtimeSupported(g.runtime) {
			continue
		}
		rt := g.runtime
		r.GaugeFunc(g.name, g.help, func() float64 { return readRuntimeFloat(rt) })
	}
	hists := []struct {
		runtime, name, help string
	}{
		{"/sched/pauses/total/gc:seconds", "go_gc_pauses_seconds", "distribution of stop-the-world GC pause latencies"},
		{"/sched/latencies:seconds", "go_sched_latencies_seconds", "distribution of goroutine scheduling latencies"},
	}
	for _, h := range hists {
		if !runtimeSupported(h.runtime) {
			continue
		}
		rt := h.runtime
		r.HistogramFunc(h.name, h.help, func() Snapshot { return runtimeHistSnapshot(rt) })
	}
}
