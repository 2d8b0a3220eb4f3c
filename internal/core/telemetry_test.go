package core

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"npdbench/internal/obs"
)

func TestUsageInStats(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{Metrics: reg}))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?n ?p WHERE { ?x :name ?n . ?x :SellsProduct ?p }`)
	if err != nil {
		t.Fatal(err)
	}
	u := ans.Stats.Usage
	if u == nil {
		t.Fatal("no usage block with observer installed")
	}
	if u.RowsScanned <= 0 || u.RowsProduced <= 0 || u.BytesMaterialized <= 0 {
		t.Fatalf("usage not accounted: %+v", u)
	}
	text := reg.PrometheusText()
	for _, want := range []string{
		"npdbench_usage_rows_scanned_total",
		"npdbench_usage_rows_produced_total",
		"npdbench_usage_bytes_materialized_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := reg.Gauge("npdbench_queries_inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge = %d after query settled", got)
	}
}

func TestUsageOffWithoutObserver(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x WHERE { ?x a :Employee }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.Usage != nil {
		t.Fatal("usage accounted with observability off")
	}
}

// TestSampledTraceRetention checks the retention rule: with a slow log
// and no tracing, the execution is traced and captured under the caller's
// label, and the trace does not stay on the answer; with tracing on, it
// does.
func TestSampledTraceRetention(t *testing.T) {
	slowlog := obs.NewSlowLog(4)
	e, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{SlowLog: slowlog}))
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.ParseQuery(`SELECT ?x WHERE { ?x a :Employee }`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.AnswerNamed(q, "emp-scan")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace != nil {
		t.Fatal("untraced run kept its trace on the answer")
	}
	snap := slowlog.Snapshot()
	if len(snap) != 1 || snap[0].Query != "emp-scan" || snap[0].TraceID == "" || snap[0].Trace == nil || snap[0].Usage == nil {
		t.Fatalf("slowlog = %+v", snap)
	}

	e2, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	if ans, err = e2.Query(`SELECT ?x WHERE { ?x a :Employee }`); err != nil {
		t.Fatal(err)
	}
	if ans.Trace == nil {
		t.Fatal("traced run lost its trace")
	}
}

// TestConcurrentAnswerTelemetry runs concurrent queries against one
// engine with the full telemetry stack on, while HTTP clients poll the
// metrics and slowlog endpoints — the serving posture of obdaqd. The
// -race run in ci.sh is the real assertion.
func TestConcurrentAnswerTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	slowlog := obs.NewSlowLog(8)
	e, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{
		Metrics: reg,
		SlowLog: slowlog,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rc := obs.NewRuntimeCollector(reg)
	metricsSrv := httptest.NewServer(reg.Handler())
	defer metricsSrv.Close()
	slowSrv := httptest.NewServer(slowlog.Handler())
	defer slowSrv.Close()

	const workers, iters = 6, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := stressQueries[(w+i)%len(stressQueries)]
				if _, err := e.Query(q); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
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

	if got := reg.Counter("npdbench_queries_total").Value(); got != workers*iters {
		t.Fatalf("queries_total = %d, want %d", got, workers*iters)
	}
	if got := reg.Gauge("npdbench_queries_inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge = %d after drain", got)
	}
	if slowlog.Len() == 0 {
		t.Fatal("no slow queries captured")
	}
	text := reg.PrometheusText()
	for _, want := range []string{
		"npdbench_slowlog_captured_total",
		"npdbench_usage_rows_scanned_total",
		"npdbench_runtime_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestQueryLabelKeepsRunesWhole checks that the slow-log label never splits
// a UTF-8 character when it cuts long SPARQL text, and stays within 80
// bytes even for input that is not UTF-8 at all.
func TestQueryLabelKeepsRunesWhole(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"short text unchanged", "SELECT  ?x\n WHERE { ?x a :Wellbore }", "SELECT ?x WHERE { ?x a :Wellbore }"},
		{"ascii cut at 77", strings.Repeat("a", 100), strings.Repeat("a", 77) + "..."},
		{"two-byte rune across the cut", strings.Repeat("a", 76) + "øøøø", strings.Repeat("a", 76) + "..."},
		{"Norwegian literal", `SELECT ?w WHERE { ?w npdv:name ?n . FILTER (?n = "Snøhvit" || ?n = "Åsgard" || ?n = "Ærfugl Nord") }`, ""},
		{"all multi-byte", strings.Repeat("ø", 60), strings.Repeat("ø", 38) + "..."},
		{"invalid UTF-8", strings.Repeat("\x80", 100), "..."},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := queryLabel(c.src)
			if utf8.ValidString(c.src) && !utf8.ValidString(got) {
				t.Fatalf("queryLabel(%q) = %q: not valid UTF-8", c.src, got)
			}
			if len(got) > 80 {
				t.Fatalf("queryLabel(%q) is %d bytes, want at most 80", c.src, len(got))
			}
			if c.want != "" && got != c.want {
				t.Fatalf("queryLabel(%q) = %q, want %q", c.src, got, c.want)
			}
		})
	}
}
