package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------- spans

func TestSpanTree(t *testing.T) {
	tr := NewTrace("query")
	if tr.ID == "" {
		t.Fatal("trace has no id")
	}
	rw := tr.StartSpan("rewrite")
	rw.SetInt("cqs", 3)
	rw.End()
	un := tr.StartSpan("unfold")
	inner := un.StartChild("self-join-merge")
	inner.End()
	un.End()
	tr.Finish()

	if got := tr.Root.StageNames(); len(got) != 3 {
		t.Fatalf("stage names = %v, want 3 entries", got)
	}
	if tr.Root.Find("self-join-merge") == nil {
		t.Fatal("nested span not found")
	}
	if tr.Root.Find("rewrite").Attrs[0] != (Attr{Key: "cqs", Val: "3"}) {
		t.Fatalf("attr = %+v", tr.Root.Find("rewrite").Attrs)
	}
	out := tr.Render()
	for _, want := range []string{"trace " + tr.ID, "query", "rewrite", "cqs=3", "└─", "self-join-merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSpanDurations(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.StartSpan("stage")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	first := sp.Duration
	if first < time.Millisecond {
		t.Fatalf("duration %v too small", first)
	}
	sp.End() // double End keeps the first duration
	if sp.Duration != first {
		t.Fatalf("double End changed duration: %v vs %v", sp.Duration, first)
	}
	ds := tr.StageDurations()
	if ds["stage"] != first {
		t.Fatalf("StageDurations = %v", ds)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.StartChild("y").End()
	sp.End()
	tr.Finish()
	if tr.Render() != "" || sp.Render() != "" {
		t.Fatal("nil render should be empty")
	}
	if tr.StageDurations() != nil {
		t.Fatal("nil trace has no durations")
	}

	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(5)
	r.Histogram("h", nil).Observe(1)
	r.Help("c", "x")
	if r.PrometheusText() != "" {
		t.Fatal("nil registry text should be empty")
	}
	var o *Observer
	if o.StartQuery("q") != nil || o.Profiling() || o.Registry() != nil {
		t.Fatal("nil observer must be fully off")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := NewTrace("q").Root
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c := root.StartChild("c")
				c.SetInt("j", j)
				c.End()
			}
		}()
	}
	wg.Wait()
	if len(root.Children) != 16*50 {
		t.Fatalf("children = %d, want %d", len(root.Children), 16*50)
	}
}

// ---------------------------------------------------------------- metrics

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	c := r.Counter("hits_total")
	c.Add(-5) // negative deltas ignored
	if c.Value() != 8000 {
		t.Fatalf("negative add changed counter: %d", c.Value())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// le semantics: v <= bound lands in that bucket; exact boundary included.
	for _, v := range []float64{0.5, 1} { // both <= 1
		h.Observe(v)
	}
	h.Observe(1.5) // (1,2]
	h.Observe(2)   // boundary of bucket le=2
	h.Observe(3)   // (2,4]
	h.Observe(9)   // overflow
	want := []int64{2, 2, 1, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-(0.5+1+1.5+2+3+9)) > 1e-9 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5) // all in first bucket
	}
	// Median rank 5 of 10, interpolated inside [0,10] → 5.
	if q := h.Quantile(0.5); math.Abs(q-5) > 1e-9 {
		t.Fatalf("q50 = %g, want 5", q)
	}
	h2 := NewHistogram([]float64{10, 20})
	h2.Observe(25) // overflow clamps to highest finite bound
	if q := h2.Quantile(0.99); q != 20 {
		t.Fatalf("overflow quantile = %g, want 20", q)
	}
	var empty *Histogram
	if empty.Quantile(0.5) != 0 || NewHistogram(nil).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-4000) > 1e-6 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {95, 9.55}, {99, 9.91},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty samples should give 0")
	}
	if Percentile([]float64{7}, 95) != 7 {
		t.Error("single sample percentile")
	}
	// input must not be reordered
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("npd_queries_total").Add(3)
	r.Help("npd_queries_total", "queries answered")
	r.Gauge("npd_clients").Set(2)
	h := r.Histogram(`npd_stage_seconds{stage="rewrite"}`, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	out := r.PrometheusText()
	for _, want := range []string{
		"# HELP npd_queries_total queries answered",
		"# TYPE npd_queries_total counter",
		"npd_queries_total 3",
		"# TYPE npd_clients gauge",
		"npd_clients 2",
		"# TYPE npd_stage_seconds histogram",
		`npd_stage_seconds_bucket{stage="rewrite",le="0.1"} 1`,
		`npd_stage_seconds_bucket{stage="rewrite",le="1"} 2`,
		`npd_stage_seconds_bucket{stage="rewrite",le="+Inf"} 2`,
		`npd_stage_seconds_sum{stage="rewrite"} 0.55`,
		`npd_stage_seconds_count{stage="rewrite"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Histogram("h", []float64{1, 2}).Observe(1.5)
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("registry JSON invalid: %v\n%s", err, b)
	}
	if m["c"]["type"] != "counter" || m["c"]["value"].(float64) != 1 {
		t.Fatalf("counter json = %v", m["c"])
	}
	if m["h"]["type"] != "histogram" || m["h"]["count"].(float64) != 1 {
		t.Fatalf("histogram json = %v", m["h"])
	}
}
