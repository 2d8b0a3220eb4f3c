package mixer

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"npdbench/internal/core"
	"npdbench/internal/npd"
	"npdbench/internal/obs"
	"npdbench/internal/sqldb"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.SeedScale = 0.15
	cfg.Scales = []float64{1, 2}
	cfg.Runs = 1
	cfg.Warmup = 0
	cfg.QueryIDs = []string{"q2", "q3", "q4", "q16"}
	cfg.CountTriples = false
	return cfg
}

func TestBuildInstanceScales(t *testing.T) {
	db1, _, err := BuildInstance(1, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	db3, _, err := BuildInstance(3, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	r1, r3 := db1.TotalRows(), db3.TotalRows()
	if r3 < 2*r1 {
		t.Fatalf("NPD3 (%d rows) should be ≈3x NPD1 (%d rows)", r3, r1)
	}
	if errs := db3.CheckIntegrity(); len(errs) != 0 {
		t.Fatalf("integrity: %v", errs[0])
	}
}

func TestRunProducesMeasures(t *testing.T) {
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scales) != 2 {
		t.Fatalf("scales = %d", len(rep.Scales))
	}
	for _, sm := range rep.Scales {
		if len(sm.Queries) != 4 {
			t.Fatalf("NPD%g queries = %d", sm.Scale, len(sm.Queries))
		}
		if sm.QMPH <= 0 {
			t.Fatalf("NPD%g QMpH = %g", sm.Scale, sm.QMPH)
		}
		for _, q := range sm.Queries {
			if q.AvgTotal <= 0 {
				t.Fatalf("%s has zero total time", q.QueryID)
			}
		}
	}
	// QMpH must not increase with scale (the Figure 1 trend).
	if rep.Scales[1].QMPH > rep.Scales[0].QMPH*1.2 {
		t.Fatalf("QMpH grew with data size: %g -> %g",
			rep.Scales[0].QMPH, rep.Scales[1].QMPH)
	}
	out := rep.Summary()
	if !strings.Contains(out, "NPD1") || !strings.Contains(out, "q16") {
		t.Fatalf("summary incomplete:\n%s", out)
	}
}

// TestRunMeasuresDefaultEngine pins the mixer to the engine that ships:
// the union arms it reports are the ones core.DefaultOptions unfolds on
// the same instance, not those of some other configuration.
func TestRunMeasuresDefaultEngine(t *testing.T) {
	cfg := smallConfig()
	cfg.Scales = []float64{1}
	cfg.QueryIDs = []string{"q1", "q6"}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := BuildInstance(1, cfg.SeedScale, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Spec{Onto: npd.NewOntology(), Mapping: npd.NewMapping(), DB: db, Prefixes: npd.Prefixes()},
		core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, qm := range rep.Scales[0].Queries {
		ans, err := eng.Query(npd.QueryByID(qm.QueryID).SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		if qm.UnionArms != ans.Stats.UnionArms {
			t.Errorf("%s: mixer measured %d union arms, the default engine unfolds %d",
				qm.QueryID, qm.UnionArms, ans.Stats.UnionArms)
		}
	}
}

func TestTractableTableRendering(t *testing.T) {
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := TractableTable(rep, "caption")
	for _, col := range []string{"avg(ex_time)", "avg(out_time)", "qmph", "NPD1", "NPD2"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing %q in:\n%s", col, out)
		}
	}
}

func TestTable7ShapeMatchesPaper(t *testing.T) {
	rows, err := Table7Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(rows))
	}
	var q6 *Table7Row
	aggs := 0
	filters := 0
	for i := range rows {
		if rows[i].QueryID == "q6" {
			q6 = &rows[i]
		}
		if rows[i].Aggregate {
			aggs++
		}
		if rows[i].Filter {
			filters++
		}
	}
	if q6 == nil || q6.TreeWitnesses != 2 {
		t.Fatalf("q6 must have 2 tree witnesses: %+v", q6)
	}
	if aggs != 7 {
		t.Fatalf("aggregate queries = %d, want 7 (q15–q21)", aggs)
	}
	if filters < 5 {
		t.Fatalf("filtered queries = %d", filters)
	}
}

func TestProfilesBothComplete(t *testing.T) {
	cfg := smallConfig()
	cfg.Scales = []float64{1}
	for _, p := range []sqldb.Profile{sqldb.ProfileHashJoin, sqldb.ProfileSortMerge} {
		cfg.Profile = p
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if rep.Scales[0].QMPH <= 0 {
			t.Fatalf("%s: no throughput", p)
		}
	}
}

func TestMultiClientRun(t *testing.T) {
	cfg := smallConfig()
	cfg.Scales = []float64{1}
	cfg.Clients = 4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range rep.Scales[0].Queries {
		if q.Runs != 4 {
			t.Fatalf("%s runs = %d, want clients×runs = 4", q.QueryID, q.Runs)
		}
	}
}

func TestTextTable(t *testing.T) {
	tw := newTextTable("a", "bbbb")
	tw.add("1")
	tw.add("22", "3")
	out := tw.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a ") {
		t.Fatalf("header: %q", lines[0])
	}
}

func TestTable8Renders(t *testing.T) {
	out, err := Table8(0.1, 3, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"class_npd2", "obj_npd2", "data_npd2", "avgdev heur"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable3AndTable7Render(t *testing.T) {
	t3, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t3, "adolena") || !strings.Contains(t3, "fishmark") {
		t.Fatalf("table 3 incomplete:\n%s", t3)
	}
	t7, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t7, "q21") {
		t.Fatalf("table 7 incomplete:\n%s", t7)
	}
}

func TestRunLogAndPercentiles(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallConfig()
	cfg.Scales = []float64{1}
	cfg.Runs = 4
	cfg.QueryIDs = []string{"q2", "q3"}
	cfg.RunLog = obs.NewRunLog(&buf)
	cfg.Metrics = obs.NewRegistry()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.RunLog.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateRunLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("run log invalid: %v\n%s", err, buf.String())
	}
	if n != 2*4 {
		t.Fatalf("run log has %d records, want 8", n)
	}
	// Records carry real trace ids and distinct ones per run.
	ids := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.TraceID == "untraced" {
			t.Fatalf("record missing trace id: %s", line)
		}
		ids[rec.TraceID] = true
		if rec.Scale != 1 || rec.Profile == "" {
			t.Fatalf("record missing scale/profile: %s", line)
		}
	}
	if len(ids) != n {
		t.Fatalf("trace ids not unique: %d ids over %d records", len(ids), n)
	}
	// Percentile columns are populated and ordered.
	qm := rep.Scales[0].Queries[0]
	if qm.P50Total <= 0 || qm.P95Total < qm.P50Total || qm.P99Total < qm.P95Total {
		t.Fatalf("percentiles inconsistent: p50=%v p95=%v p99=%v", qm.P50Total, qm.P95Total, qm.P99Total)
	}
	if qm.P99Total > 4*qm.AvgTotal+qm.StddevTotal*8 {
		t.Logf("note: long tail p99=%v avg=%v", qm.P99Total, qm.AvgTotal)
	}
	// The metrics registry saw every measured (and warmup) execution.
	if cfg.Metrics.Counter("npdbench_queries_total").Value() < 8 {
		t.Fatalf("metrics registry missed runs: %d", cfg.Metrics.Counter("npdbench_queries_total").Value())
	}
	// Breakdown renders the new distribution columns.
	out := QueryBreakdown(rep.Scales[0])
	for _, col := range []string{"stddev", "p50", "p95", "p99"} {
		if !strings.Contains(out, col) {
			t.Fatalf("breakdown missing %q column:\n%s", col, out)
		}
	}
}
