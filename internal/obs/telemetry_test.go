package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestUsageAccounting(t *testing.T) {
	u := NewUsage(QueryBudget{})
	u.AddRowsScanned(100)
	u.AddRowsScanned(50)
	u.AddRowsProduced(30, 3000)
	u.AddParallelTasks(4)
	u.AddCacheHits(2)
	s := u.Snapshot()
	if s.RowsScanned != 150 || s.RowsProduced != 30 || s.BytesMaterialized != 3000 ||
		s.ParallelTasks != 4 || s.CacheHits != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.BudgetExceeded) != 0 {
		t.Fatalf("unlimited budget tripped: %v", s.BudgetExceeded)
	}
}

func TestUsageBudgetTrip(t *testing.T) {
	u := NewUsage(QueryBudget{MaxRowsScanned: 100, MaxBytesMaterialized: 1000})
	u.AddRowsScanned(99)
	if got := u.Exceeded(); len(got) != 0 {
		t.Fatalf("under budget yet exceeded: %v", got)
	}
	u.AddRowsScanned(2) // 101 > 100
	u.AddRowsProduced(10, 2000)
	got := u.Exceeded()
	if len(got) != 2 || got[0] != "rows_scanned" || got[1] != "bytes_materialized" {
		t.Fatalf("exceeded = %v", got)
	}
	// Tripping again must not duplicate.
	u.AddRowsScanned(1000)
	if got := u.Exceeded(); len(got) != 2 {
		t.Fatalf("re-trip duplicated: %v", got)
	}
	s := u.Snapshot()
	if strings.Join(s.BudgetExceeded, ",") != "rows_scanned,bytes_materialized" {
		t.Fatalf("snapshot exceeded = %v", s.BudgetExceeded)
	}
	if !strings.Contains(s.String(), "budget_exceeded=rows_scanned,bytes_materialized") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestUsageNilSafety(t *testing.T) {
	var u *Usage
	u.AddRowsScanned(1)
	u.AddRowsProduced(1, 1)
	u.AddParallelTasks(1)
	u.AddCacheHits(1)
	if u.Exceeded() != nil || u.Snapshot() != nil {
		t.Fatal("nil usage must yield nils")
	}
	var s *UsageSnapshot
	s.Annotate(nil) // must not panic
}

func TestUsageAnnotate(t *testing.T) {
	tr := NewTrace("q")
	u := NewUsage(QueryBudget{MaxRowsScanned: 1})
	u.AddRowsScanned(5)
	u.Snapshot().Annotate(tr.Root)
	tr.Finish()
	out := tr.Render()
	if !strings.Contains(out, "rows_scanned=5") || !strings.Contains(out, "budget_exceeded=rows_scanned") {
		t.Fatalf("render missing usage attrs:\n%s", out)
	}
}

func TestSamplerDecide(t *testing.T) {
	var nilSampler *Sampler
	if d := nilSampler.Decide(); d.Sampled || d.Reason != "unsampled" {
		t.Fatalf("nil sampler: %+v", d)
	}
	always := &Sampler{Rate: 1}
	if d := always.Decide(); !d.Sampled || d.Reason != "always" {
		t.Fatalf("rate 1: %+v", d)
	}
	off := &Sampler{Rate: 0}
	if d := off.Decide(); d.Sampled {
		t.Fatalf("rate 0 sampled: %+v", d)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	a := &Sampler{Rate: 0.5, Seed: 7}
	b := &Sampler{Rate: 0.5, Seed: 7}
	for i := 0; i < 100; i++ {
		da, db := a.Decide(), b.Decide()
		if da != db {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, da, db)
		}
	}
}

func TestSamplerRate(t *testing.T) {
	s := &Sampler{Rate: 0.25, Seed: 42}
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if d := s.Decide(); d.Sampled {
			if d.Reason != "prob" {
				t.Fatalf("reason = %q", d.Reason)
			}
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("empirical rate %.3f, want ~0.25", got)
	}
}

func TestSamplerSlow(t *testing.T) {
	s := &Sampler{SlowThreshold: 10 * time.Millisecond}
	if s.Slow(9 * time.Millisecond) {
		t.Fatal("below threshold marked slow")
	}
	if !s.Slow(10 * time.Millisecond) {
		t.Fatal("at threshold not slow")
	}
	var nilSampler *Sampler
	if nilSampler.Slow(time.Hour) {
		t.Fatal("nil sampler marked slow")
	}
	zero := &Sampler{}
	if zero.Slow(time.Hour) {
		t.Fatal("zero threshold marked slow")
	}
}

func TestSlowLogBounds(t *testing.T) {
	l := NewSlowLog(3)
	for i, us := range []int64{50, 10, 30} {
		if !l.Offer(&SlowEntry{TraceID: fmt.Sprintf("t%d", i), DurationUS: us}) {
			t.Fatalf("fill offer %d rejected", i)
		}
	}
	// Slower than the resident minimum (10): displaces it.
	if !l.Offer(&SlowEntry{TraceID: "t3", DurationUS: 20}) {
		t.Fatal("displacing offer rejected")
	}
	// Faster than the new minimum (20): rejected.
	if l.Offer(&SlowEntry{TraceID: "t4", DurationUS: 5}) {
		t.Fatal("fast offer admitted to full ring")
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if l.offered != 5 {
		t.Fatalf("offered = %d", l.offered)
	}
	snap := l.Snapshot()
	var got []int64
	for _, e := range snap {
		got = append(got, e.DurationUS)
	}
	if fmt.Sprint(got) != "[50 30 20]" {
		t.Fatalf("snapshot (slowest first) = %v", got)
	}
}

func TestSlowLogRenderJSON(t *testing.T) {
	l := NewSlowLog(2)
	l.Offer(&SlowEntry{TraceID: "abc", Query: "q6", DurationUS: 99, Decision: "slow", Slow: true})
	data, err := l.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Capacity int          `json:"capacity"`
		Captured int          `json:"captured"`
		Entries  []*SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("slowlog JSON malformed: %v\n%s", err, data)
	}
	if doc.Capacity != 2 || doc.Captured != 1 || len(doc.Entries) != 1 || doc.Entries[0].TraceID != "abc" {
		t.Fatalf("doc = %+v", doc)
	}
	var nilLog *SlowLog
	if _, err := nilLog.RenderJSON(); err != nil {
		t.Fatalf("nil slowlog render: %v", err)
	}
}

func TestRuntimeCollector(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	c.Collect()
	text := reg.PrometheusText()
	for _, want := range []string{
		"npdbench_runtime_heap_bytes",
		"npdbench_runtime_goroutines",
		"npdbench_runtime_gc_cycles_total",
		"npdbench_runtime_collections_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Goroutine count and heap size are always positive in a live process.
	if strings.Contains(text, "npdbench_runtime_goroutines 0\n") {
		t.Error("goroutine gauge is zero")
	}
	if strings.Contains(text, "npdbench_runtime_heap_bytes 0\n") {
		t.Error("heap gauge is zero")
	}
}

func TestRuntimeCollectorNil(t *testing.T) {
	c := NewRuntimeCollector(nil)
	if c != nil {
		t.Fatal("nil registry must yield nil collector")
	}
	c.Collect()
}

func TestHistQuantile(t *testing.T) {
	// histQuantile is exercised indirectly through Collect on real
	// runtime histograms; here, check the degenerate paths directly.
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Fatalf("nil histogram: %v", got)
	}
}

func TestObserverQueryLifecycle(t *testing.T) {
	var nilObs *Observer
	tr, dec := nilObs.StartQuery("q")
	if tr != nil || dec.Reason != "off" {
		t.Fatalf("nil observer: %v %+v", tr, dec)
	}
	if u := nilObs.NewUsage(); u != nil {
		t.Fatal("nil observer usage")
	}
	retained, _ := nilObs.FinishQuery("q", nil, dec, 0, nil, nil)
	if retained {
		t.Fatal("nil observer retained trace")
	}

	// Plain tracing: always retained.
	o := &Observer{Tracing: true}
	tr, dec = o.StartQuery("q")
	if tr == nil || !dec.Sampled || dec.Reason != "always" {
		t.Fatalf("tracing: %v %+v", tr, dec)
	}
	if retained, _ := o.FinishQuery("q", tr, dec, time.Second, nil, nil); !retained {
		t.Fatal("tracing trace dropped")
	}

	// Sampler at rate 0 with a slow log: trace is still collected so the
	// slow threshold can promote it post hoc.
	reg := NewRegistry()
	o = &Observer{
		Metrics: reg,
		Sampler: &Sampler{Rate: 0, SlowThreshold: 10 * time.Millisecond},
		SlowLog: NewSlowLog(4),
	}
	tr, dec = o.StartQuery("q-fast")
	if tr == nil || dec.Sampled {
		t.Fatalf("tail collection: %v %+v", tr, dec)
	}
	retained, dec = o.FinishQuery("q-fast", tr, dec, time.Millisecond, nil, nil)
	if retained || dec.Sampled {
		t.Fatalf("fast unsampled query retained: %v %+v", retained, dec)
	}

	tr, dec = o.StartQuery("q-slow")
	usage := NewUsage(QueryBudget{}).Snapshot()
	retained, dec = o.FinishQuery("q-slow", tr, dec, 50*time.Millisecond, usage, nil)
	if !retained || dec.Reason != "slow" {
		t.Fatalf("slow query not promoted: %v %+v", retained, dec)
	}
	if o.SlowLog.Len() != 2 {
		t.Fatalf("slowlog captured %d, want 2 (capacity not yet full)", o.SlowLog.Len())
	}
	snap := o.SlowLog.Snapshot()
	if snap[0].Query != "q-slow" || !snap[0].Slow || snap[0].Usage != usage {
		t.Fatalf("slowlog head = %+v", snap[0])
	}
	text := reg.PrometheusText()
	if !strings.Contains(text, `npdbench_traces_sampled_total{decision="slow"} 1`) {
		t.Errorf("missing slow decision counter:\n%s", text)
	}
	if !strings.Contains(text, "npdbench_slowlog_captured_total 2") {
		t.Errorf("missing slowlog counter:\n%s", text)
	}
}

func TestObserverBudgetThreading(t *testing.T) {
	o := &Observer{Metrics: NewRegistry(), Budget: QueryBudget{MaxRowsScanned: 10}}
	u := o.NewUsage()
	if u == nil {
		t.Fatal("observer with metrics must allocate usage")
	}
	u.AddRowsScanned(11)
	if got := u.Exceeded(); len(got) != 1 || got[0] != "rows_scanned" {
		t.Fatalf("budget not threaded: %v", got)
	}
}

// TestTelemetryConcurrent drives the sampler, slow log, registry and
// runtime collector from many goroutines while HTTP clients poll the
// /metrics and /debug/slowlog endpoints — the -race run in ci.sh is the
// real assertion.
func TestTelemetryConcurrent(t *testing.T) {
	reg := NewRegistry()
	o := &Observer{
		Metrics: reg,
		Sampler: &Sampler{Rate: 0.5, Seed: 1, SlowThreshold: time.Microsecond},
		SlowLog: NewSlowLog(8),
		Budget:  QueryBudget{MaxRowsScanned: 100},
	}
	rc := NewRuntimeCollector(reg)

	metricsSrv := httptest.NewServer(reg.Handler())
	defer metricsSrv.Close()
	slowSrv := httptest.NewServer(o.SlowLog.Handler())
	defer slowSrv.Close()

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr, dec := o.StartQuery("q")
				u := o.NewUsage()
				u.AddRowsScanned(int64(i))
				u.AddRowsProduced(1, 64)
				tr.Finish()
				o.FinishQuery("q", tr, dec, time.Duration(i)*time.Microsecond, u.Snapshot(), nil)
			}
		}(w)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rc.Collect() // as obdaqd does on every scrape
				for _, url := range []string{metricsSrv.URL, slowSrv.URL} {
					resp, err := metricsSrv.Client().Get(url)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	if o.SlowLog.Len() == 0 {
		t.Fatal("no slow queries captured")
	}
	if o.SlowLog.offered != workers*iters {
		t.Fatalf("offered = %d, want %d", o.SlowLog.offered, workers*iters)
	}
	text := reg.PrometheusText()
	if !strings.Contains(text, "npdbench_traces_sampled_total") {
		t.Error("sampling counters missing after concurrent run")
	}
}
