package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestUsageAccounting(t *testing.T) {
	u := &Usage{}
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
}

func TestUsageNilSafety(t *testing.T) {
	var u *Usage
	u.AddRowsScanned(1)
	u.AddRowsProduced(1, 1)
	u.AddParallelTasks(1)
	u.AddCacheHits(1)
	if u.Snapshot() != nil {
		t.Fatal("nil usage must yield a nil snapshot")
	}
	var s *UsageSnapshot
	s.Annotate(nil) // must not panic
}

func TestUsageAnnotate(t *testing.T) {
	tr := NewTrace("q")
	u := &Usage{}
	u.AddRowsScanned(5)
	u.Snapshot().Annotate(tr.Root)
	tr.Finish()
	out := tr.Render()
	if !strings.Contains(out, "rows_scanned=5") {
		t.Fatalf("render missing usage attrs:\n%s", out)
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
	l.Offer(&SlowEntry{TraceID: "abc", Query: "q6", DurationUS: 99})
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
	if tr := nilObs.StartQuery("q"); tr != nil {
		t.Fatalf("nil observer traced: %v", tr)
	}
	if u := nilObs.NewUsage(); u != nil {
		t.Fatal("nil observer usage")
	}
	if nilObs.FinishQuery("q", nil, 0, nil, nil) {
		t.Fatal("nil observer retained trace")
	}

	// Metrics alone collect no trace.
	if tr := (&Observer{Metrics: NewRegistry()}).StartQuery("q"); tr != nil {
		t.Fatal("metrics-only observer traced")
	}

	// Plain tracing: always retained.
	o := &Observer{Tracing: true}
	tr := o.StartQuery("q")
	if tr == nil {
		t.Fatal("tracing observer collected no trace")
	}
	if !o.FinishQuery("q", tr, time.Second, nil, nil) {
		t.Fatal("tracing trace dropped")
	}

	// A slow log without tracing: every execution is traced and offered,
	// and no trace stays on the answer.
	reg := NewRegistry()
	o = &Observer{Metrics: reg, SlowLog: NewSlowLog(4)}
	tr = o.StartQuery("q-fast")
	if tr == nil {
		t.Fatal("slow log installed but no trace collected")
	}
	if o.FinishQuery("q-fast", tr, time.Millisecond, nil, nil) {
		t.Fatal("untraced query retained its trace")
	}
	tr = o.StartQuery("q-slow")
	usage := (&Usage{}).Snapshot()
	if o.FinishQuery("q-slow", tr, 50*time.Millisecond, usage, nil) {
		t.Fatal("untraced query retained its trace")
	}
	if o.SlowLog.Len() != 2 {
		t.Fatalf("slowlog captured %d, want 2 (capacity not yet full)", o.SlowLog.Len())
	}
	snap := o.SlowLog.Snapshot()
	if snap[0].Query != "q-slow" || snap[0].TraceID != tr.ID || snap[0].Usage != usage {
		t.Fatalf("slowlog head = %+v", snap[0])
	}
	text := reg.PrometheusText()
	if !strings.Contains(text, "npdbench_slowlog_captured_total 2") {
		t.Errorf("missing slowlog counter:\n%s", text)
	}
}

// TestTelemetryConcurrent drives the slow log, registry and runtime
// collector from many goroutines while HTTP clients poll the /metrics and
// /debug/slowlog endpoints; every served slow-log document must satisfy
// offered == captured + evicted. The -race run in ci.sh is the other
// assertion.
func TestTelemetryConcurrent(t *testing.T) {
	reg := NewRegistry()
	o := &Observer{
		Metrics: reg,
		SlowLog: NewSlowLog(8),
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
				tr := o.StartQuery("q")
				u := o.NewUsage()
				u.AddRowsScanned(int64(i))
				u.AddRowsProduced(1, 64)
				tr.Finish()
				o.FinishQuery("q", tr, time.Duration(i)*time.Microsecond, u.Snapshot(), nil)
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
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if url != slowSrv.URL {
						continue
					}
					var doc struct {
						Captured int   `json:"captured"`
						Offered  int64 `json:"offered"`
						Evicted  int64 `json:"evicted"`
					}
					if err := json.Unmarshal(body, &doc); err != nil {
						t.Error(err)
						return
					}
					if doc.Offered != int64(doc.Captured)+doc.Evicted {
						t.Errorf("slowlog document: offered %d != captured %d + evicted %d", doc.Offered, doc.Captured, doc.Evicted)
						return
					}
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
	if !strings.Contains(text, "npdbench_slowlog_captured_total") {
		t.Error("slow-log counter missing after concurrent run")
	}
}
