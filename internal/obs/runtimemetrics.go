package obs

import (
	"math"
	"runtime/metrics"
	"sync"
)

// RuntimeCollector bridges the runtime/metrics package into a Registry,
// so one Prometheus scrape of /metrics shows engine health (query rates,
// stage latencies, cache hits) and runtime health (heap, GC, goroutines,
// scheduler latency) side by side. Collect is a cheap one-shot read: a
// serving process calls it on each scrape, a command once before printing.
// Keep one collector per registry — it feeds the GC counter the delta
// since its own previous pass.
//
// Exported family (all under npdbench_runtime_*):
//
//	heap_bytes               gauge    live heap (objects class)
//	total_bytes              gauge    total runtime-mapped memory
//	goroutines               gauge    current goroutine count
//	gc_cycles_total          counter  completed GC cycles
//	gc_pause_us{q="..."}     gauge    GC stop-the-world pause quantiles
//	sched_latency_us{q="..."} gauge   goroutine scheduling latency quantiles
//	collections_total        counter  collector passes
type RuntimeCollector struct {
	mu      sync.Mutex // serializes Collect passes
	samples []metrics.Sample

	heapBytes  *Gauge
	totalBytes *Gauge
	goroutines *Gauge
	gcCycles   *Counter
	gcPauseP50 *Gauge
	gcPauseP99 *Gauge
	schedP50   *Gauge
	schedP99   *Gauge
	collects   *Counter

	lastGCCycles uint64
}

// Indices into RuntimeCollector.samples (must match newRuntimeSamples).
const (
	rmHeapBytes = iota
	rmTotalBytes
	rmGoroutines
	rmGCCycles
	rmGCPauses
	rmSchedLatency
	numRuntimeSamples
)

func newRuntimeSamples() []metrics.Sample {
	s := make([]metrics.Sample, numRuntimeSamples)
	s[rmHeapBytes].Name = "/memory/classes/heap/objects:bytes"
	s[rmTotalBytes].Name = "/memory/classes/total:bytes"
	s[rmGoroutines].Name = "/sched/goroutines:goroutines"
	s[rmGCCycles].Name = "/gc/cycles/total:gc-cycles"
	s[rmGCPauses].Name = "/gc/pauses:seconds"
	s[rmSchedLatency].Name = "/sched/latencies:seconds"
	return s
}

// NewRuntimeCollector binds the runtime metric family to reg. Returns nil
// on a nil registry (and every method no-ops), matching the one-nil-check
// discipline of the rest of the package.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	if reg == nil {
		return nil
	}
	c := &RuntimeCollector{
		samples:    newRuntimeSamples(),
		heapBytes:  reg.Gauge("npdbench_runtime_heap_bytes"),
		totalBytes: reg.Gauge("npdbench_runtime_total_bytes"),
		goroutines: reg.Gauge("npdbench_runtime_goroutines"),
		gcCycles:   reg.Counter("npdbench_runtime_gc_cycles_total"),
		gcPauseP50: reg.Gauge(`npdbench_runtime_gc_pause_us{q="0.5"}`),
		gcPauseP99: reg.Gauge(`npdbench_runtime_gc_pause_us{q="0.99"}`),
		schedP50:   reg.Gauge(`npdbench_runtime_sched_latency_us{q="0.5"}`),
		schedP99:   reg.Gauge(`npdbench_runtime_sched_latency_us{q="0.99"}`),
		collects:   reg.Counter("npdbench_runtime_collections_total"),
	}
	reg.Help("npdbench_runtime_heap_bytes", "Live heap memory (runtime/metrics objects class).")
	reg.Help("npdbench_runtime_goroutines", "Current number of goroutines.")
	reg.Help("npdbench_runtime_gc_pause_us", "GC stop-the-world pause quantiles in microseconds.")
	reg.Help("npdbench_runtime_sched_latency_us", "Goroutine scheduling latency quantiles in microseconds.")
	return c
}

// Collect reads one runtime/metrics snapshot into the registry.
func (c *RuntimeCollector) Collect() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	metrics.Read(c.samples)
	if v := c.samples[rmHeapBytes].Value; v.Kind() == metrics.KindUint64 {
		c.heapBytes.Set(int64(v.Uint64()))
	}
	if v := c.samples[rmTotalBytes].Value; v.Kind() == metrics.KindUint64 {
		c.totalBytes.Set(int64(v.Uint64()))
	}
	if v := c.samples[rmGoroutines].Value; v.Kind() == metrics.KindUint64 {
		c.goroutines.Set(int64(v.Uint64()))
	}
	if v := c.samples[rmGCCycles].Value; v.Kind() == metrics.KindUint64 {
		// runtime reports a cumulative total; the registry counter is
		// fed the delta since the previous pass.
		cur := v.Uint64()
		if cur >= c.lastGCCycles {
			c.gcCycles.Add(int64(cur - c.lastGCCycles))
		}
		c.lastGCCycles = cur
	}
	if v := c.samples[rmGCPauses].Value; v.Kind() == metrics.KindFloat64Histogram {
		h := v.Float64Histogram()
		c.gcPauseP50.Set(int64(histQuantile(h, 0.50) * 1e6))
		c.gcPauseP99.Set(int64(histQuantile(h, 0.99) * 1e6))
	}
	if v := c.samples[rmSchedLatency].Value; v.Kind() == metrics.KindFloat64Histogram {
		h := v.Float64Histogram()
		c.schedP50.Set(int64(histQuantile(h, 0.50) * 1e6))
		c.schedP99.Set(int64(histQuantile(h, 0.99) * 1e6))
	}
	c.collects.Inc()
}

// histQuantile estimates the q-quantile of a runtime/metrics histogram.
// Buckets[i]..Buckets[i+1] bounds Counts[i]; boundary buckets may be
// infinite, in which case the finite edge is reported.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return 0
	}
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range h.Counts {
		cum += float64(n)
		if cum < rank {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) { // overflow bucket: report its finite floor
			return lo
		}
		return hi
	}
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 1) {
		last = h.Buckets[len(h.Buckets)-2]
	}
	return last
}
