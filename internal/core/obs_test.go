package core

import (
	"strings"
	"testing"
	"time"

	"npdbench/internal/obs"
)

func obsOptions(observer *obs.Observer) Options {
	o := DefaultOptions()
	o.Obs = observer
	return o
}

// TestTraceStageTaxonomy checks that a traced single-BGP query emits the
// full seven-stage span taxonomy in pipeline order.
func TestTraceStageTaxonomy(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x WHERE { ?x a :Employee }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace == nil {
		t.Fatal("tracing enabled but Answer.Trace is nil")
	}
	want := []string{"parse", "rewrite", "unfold", "plan", "execute", "assemble"}
	got := ans.Trace.Root.StageNames()
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d = %q, want %q\n%s", i, got[i], want[i], ans.Trace.Render())
		}
	}
	// Pre-parsed entry point still carries all stages, with parse cached.
	q, err := e.ParseQuery(`SELECT ?x WHERE { ?x a :Employee }`)
	if err != nil {
		t.Fatal(err)
	}
	ans2, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := ans2.Trace.Root.StageNames(); len(got) != len(want) {
		t.Fatalf("pre-parsed stages = %v", got)
	}
	if !strings.Contains(ans2.Trace.Render(), "cached") {
		t.Fatalf("parse span not marked cached:\n%s", ans2.Trace.Render())
	}
	if ans.Trace.ID == ans2.Trace.ID {
		t.Fatal("trace ids must be unique")
	}
}

// TestTraceEntailedAtoms checks that the rewrite span and the phase stats
// report the atoms the rewriter dropped, on a compile and on the cached
// replay: Person(x) is entailed by SellsProduct's domain Employee.
func TestTraceEntailedAtoms(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		ans, err := e.Query(`SELECT ?x ?p WHERE { ?x a :Person ; :SellsProduct ?p }`)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		for _, a := range ans.Trace.Root.Find("rewrite").Attrs {
			if a.Key == "entailed_atoms" {
				got = a.Val
			}
		}
		if got != "1" || ans.Stats.EntailedAtoms != 1 {
			t.Fatalf("run %d: span entailed_atoms=%q, stats %d, want 1\n%s",
				run, got, ans.Stats.EntailedAtoms, ans.Trace.Render())
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x WHERE { ?x a :Employee }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace != nil || ans.Profiles != nil {
		t.Fatal("observability must be fully off without an observer")
	}
}

// TestExecProfileCollection checks the operator-level EXPLAIN ANALYZE path
// through the engine: a profile per executed SQL statement, with row
// counts consistent with the answer.
func TestExecProfileCollection(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{ExecProfile: true}))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?n ?p WHERE { ?x :name ?n . ?x :SellsProduct ?p }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Profiles) != 1 {
		t.Fatalf("profiles = %d, want 1", len(ans.Profiles))
	}
	prof := ans.Profiles[0]
	if prof.Op != "query" {
		t.Fatalf("root op = %q", prof.Op)
	}
	// The SQL result feeds the BGP translation; after dedup the answer can
	// only shrink.
	if prof.Rows < ans.Len() {
		t.Fatalf("profile rows=%d < answer rows=%d\n%s", prof.Rows, ans.Len(), prof.Render())
	}
	if prof.Find("scan") == nil {
		t.Fatalf("no scan operator:\n%s", prof.Render())
	}
}

func TestMetricsRecording(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{Metrics: reg}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Query(`SELECT ?x WHERE { ?x a :Employee }`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Query(`SELECT ?x WHERE { this is not sparql`); err == nil {
		t.Fatal("malformed query should fail")
	}
	if got := reg.Counter("npdbench_queries_total").Value(); got != 4 {
		t.Fatalf("queries_total = %d, want 4", got)
	}
	if got := reg.Counter("npdbench_query_errors_total").Value(); got != 1 {
		t.Fatalf("query_errors_total = %d, want 1", got)
	}
	h := reg.Histogram("npdbench_query_seconds", obs.DefDurationBuckets)
	if h.Count() != 3 {
		t.Fatalf("query_seconds count = %d, want 3 (failed runs excluded)", h.Count())
	}
	text := reg.PrometheusText()
	for _, want := range []string{
		"npdbench_queries_total 4",
		`npdbench_stage_seconds_count{stage="rewrite"} 3`,
		`npdbench_stage_seconds_count{stage="execute"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestWeightRU(t *testing.T) {
	cases := []struct {
		st   PhaseStats
		want float64
	}{
		{PhaseStats{}, 0}, // zero total must not divide by zero
		{PhaseStats{RewriteTime: 2, UnfoldTime: 3, TotalTime: 10}, 0.5},
		{PhaseStats{RewriteTime: 10, TotalTime: 10}, 1},
		{PhaseStats{TotalTime: -5}, 0},
	}
	for i, c := range cases {
		if got := c.st.WeightRU(); got != c.want {
			t.Errorf("case %d: WeightRU = %g, want %g", i, got, c.want)
		}
	}
}

func TestLoadStats(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ls := e.LoadStats()
	if ls.LoadTime <= 0 {
		t.Fatal("load time not recorded")
	}
	if ls.MappingAssertions <= 0 {
		t.Fatal("mapping assertions not counted")
	}
	// T-mapping saturation can only add assertions.
	if ls.SaturatedAssertions < ls.MappingAssertions {
		t.Fatalf("saturated %d < base %d", ls.SaturatedAssertions, ls.MappingAssertions)
	}
	if ls.Classes <= 0 || ls.ObjectProperties <= 0 {
		t.Fatalf("ontology stats missing: %+v", ls)
	}
	// Without saturation the counts stay equal.
	e2, err := NewEngine(exampleSpec(t), Options{TMappings: false})
	if err != nil {
		t.Fatal(err)
	}
	if ls2 := e2.LoadStats(); ls2.SaturatedAssertions != ls2.MappingAssertions {
		t.Fatalf("TMappings off must not saturate: %+v", ls2)
	}
}

func TestStageDurationsSumBelowTotal(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), obsOptions(&obs.Observer{Tracing: true}))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x WHERE { ?x a :Employee }`)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, d := range ans.Trace.StageDurations() {
		if d < 0 {
			t.Fatal("negative stage duration")
		}
		sum += d
	}
	if root := ans.Trace.Root.Duration; sum > 2*root {
		t.Fatalf("stage durations %v wildly exceed root %v", sum, root)
	}
}
