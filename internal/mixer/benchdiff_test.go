package mixer

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The committed fixture pair is two trimmed bench/out/results.json files
// (two workloads, every end-to-end metric, a handful of per-layer ones).
// NEW plants one genuine regression — mix_warm's mix_s_p50 +37 %, past the
// 25 % bound — among moves inside the bounds and two improvements; ci.sh
// diffs the same pair expecting exit 1. The ruler is the repository's own
// BENCHMARK.json.
const (
	contractFile = "../../BENCHMARK.json"
	fixtureOld   = "testdata/results_old.json"
	fixtureNew   = "testdata/results_new.json"
)

func verdicts(entries []DiffEntry) map[string]string {
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		out[e.Workload+"/"+e.Metric] = e.Verdict
	}
	return out
}

// mutated writes a copy of the OLD fixture with edit applied and returns
// its path.
func mutated(t *testing.T, edit func(*benchResults)) string {
	t.Helper()
	var res benchResults
	if err := readJSON(fixtureOld, &res); err != nil {
		t.Fatal(err)
	}
	edit(&res)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func setEndToEnd(res *benchResults, workload, metric string, v float64) {
	for _, w := range res.Workloads {
		if w.Name == workload {
			w.EndToEnd.Metrics[metric] = benchValue{Value: v}
		}
	}
}

func TestBenchDiffSeededRegression(t *testing.T) {
	rep, err := BenchDiffFiles(contractFile, fixtureOld, fixtureNew)
	if err != nil {
		t.Fatal(err)
	}
	got := verdicts(rep.EndToEnd)
	if len(got) != 2*8 {
		t.Fatalf("end-to-end entries = %d, want 2 workloads × 8 metrics", len(got))
	}
	want := map[string]string{
		"mix_warm/mix_s_p50":    "regressed", // +37 %, bound 25 %
		"mix_warm/mix_s_p75":    "ok",        // +10 %: inside the bound
		"mix_warm/qmph":         "ok",        // −10 %: inside the bound
		"mix_warm/req_ms_p97":   "improved",  // −40 %
		"mix_warm/heap_live_mb": "ok",        // +5 %, bound 10 %
		"mix_warm/ok_ratio":     "ok",
		"mix_cold/qmph":         "improved", // +40 % of a higher-is-better metric
		"mix_cold/mix_s_p50":    "ok",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict = %q, want %q", k, got[k], v)
		}
	}
	if rep.Regressions != 1 || rep.Improved != 2 || len(rep.Incorrect) != 0 || !rep.Failed() {
		t.Errorf("summary: regressions=%d improved=%d incorrect=%v failed=%v",
			rep.Regressions, rep.Improved, rep.Incorrect, rep.Failed())
	}

	// Per-layer: a count that differs at all is "changed", a timing past
	// the widest bound is "moved", a +10 % timing is not listed.
	layers := verdicts(rep.PerLayer)
	wantLayers := map[string]string{
		"mix_warm/unfold.arms_per_mix":   "changed",
		"mix_warm/sqldb.exec_ms_per_mix": "moved",
		"mix_cold/core.query_ms_p50.q6":  "moved",
	}
	for k, v := range wantLayers {
		if layers[k] != v {
			t.Errorf("per-layer %s: verdict = %q, want %q", k, layers[k], v)
		}
	}
	if len(layers) != len(wantLayers) {
		t.Errorf("per-layer entries = %v", layers)
	}
	out := rep.String()
	if !strings.Contains(out, "1 regressed") || !strings.Contains(out, "unfold.arms_per_mix") {
		t.Errorf("report text missing summary or per-layer list:\n%s", out)
	}
}

func TestBenchDiffSelfIsClean(t *testing.T) {
	for _, f := range []string{fixtureOld, fixtureNew} {
		rep, err := BenchDiffFiles(contractFile, f, f)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() || rep.Improved != 0 || len(rep.PerLayer) != 0 {
			t.Fatalf("self-diff of %s not clean:\n%s", f, rep)
		}
	}
}

// A higher-is-better metric regresses when it falls, not when it rises.
func TestBenchDiffDirection(t *testing.T) {
	fell := mutated(t, func(r *benchResults) { setEndToEnd(r, "mix_warm", "qmph", 2000) }) // 3420 → 2000
	rep, err := BenchDiffFiles(contractFile, fixtureOld, fell)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdicts(rep.EndToEnd)["mix_warm/qmph"]; got != "regressed" || !rep.Failed() {
		t.Fatalf("qmph 3420 → 2000: verdict %q, failed %v", got, rep.Failed())
	}
	rep, err = BenchDiffFiles(contractFile, fell, fixtureOld)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdicts(rep.EndToEnd)["mix_warm/qmph"]; got != "improved" || rep.Failed() {
		t.Fatalf("qmph 2000 → 3420: verdict %q, failed %v", got, rep.Failed())
	}
}

// ok_ratio fails on any drop, and a failed answer check fails the diff even
// when every metric holds.
func TestBenchDiffCorrectness(t *testing.T) {
	dropped := mutated(t, func(r *benchResults) { setEndToEnd(r, "mix_cold", "ok_ratio", 0.9995) })
	rep, err := BenchDiffFiles(contractFile, fixtureOld, dropped)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdicts(rep.EndToEnd)["mix_cold/ok_ratio"]; got != "regressed" {
		t.Fatalf("ok_ratio 1 → 0.9995 (inside its 0.1 %% bound): verdict %q, want regressed", got)
	}
	incorrect := mutated(t, func(r *benchResults) { r.Workloads[1].PerLayer.Correct = false })
	rep, err = BenchDiffFiles(contractFile, fixtureOld, incorrect)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 || len(rep.Incorrect) != 1 || !rep.Failed() {
		t.Fatalf("correct:false in NEW: regressions=%d incorrect=%v failed=%v", rep.Regressions, rep.Incorrect, rep.Failed())
	}
	if !strings.Contains(rep.String(), "incorrect answers: mix_cold per_layer") {
		t.Fatalf("report text does not name the incorrect pass:\n%s", rep)
	}
}

// A zero baseline has no percent delta: it must never be judged on (or
// print) Inf/NaN, and a move off zero must not hide behind "ok".
func TestBenchDiffZeroBaseline(t *testing.T) {
	zero := mutated(t, func(r *benchResults) {
		setEndToEnd(r, "mix_warm", "mix_s_p50", 0)
		setEndToEnd(r, "mix_warm", "qmph", 0)
		setEndToEnd(r, "mix_warm", "setup_s", 0)
	})
	stillZero := mutated(t, func(r *benchResults) { setEndToEnd(r, "mix_warm", "setup_s", 0) })
	rep, err := BenchDiffFiles(contractFile, zero, stillZero)
	if err != nil {
		t.Fatal(err)
	}
	got := verdicts(rep.EndToEnd)
	for k, want := range map[string]string{
		"mix_warm/mix_s_p50": "regressed", // 0 s → 0.892 s, lower is better
		"mix_warm/qmph":      "improved",  // 0 → 3420 mixes/h, higher is better
		"mix_warm/setup_s":   "ok",        // 0 → 0
	} {
		if got[k] != want {
			t.Errorf("%s: verdict = %q, want %q", k, got[k], want)
		}
	}
	for _, e := range append(rep.EndToEnd, rep.PerLayer...) {
		if math.IsInf(e.Delta, 0) || math.IsNaN(e.Delta) {
			t.Errorf("%s/%s: non-finite delta %v", e.Workload, e.Metric, e.Delta)
		}
	}
	if out := rep.String(); strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("report text carries non-finite values:\n%s", out)
	}
}

func TestBenchDiffRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty":        "",
		"not json":     "hello world\n",
		"jsonl":        `{"query":"q1","total_us":5}` + "\n" + `{"query":"q2","total_us":7}` + "\n",
		"no workloads": `{"seed": 1, "seconds": 20, "levels": [{"parallelism": 1}]}`,
	} {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := BenchDiffFiles(contractFile, p, fixtureNew); err == nil {
			t.Errorf("%s as OLD: expected error", name)
		}
		if _, err := BenchDiffFiles(contractFile, fixtureOld, p); err == nil {
			t.Errorf("%s as NEW: expected error", name)
		}
	}
	if _, err := BenchDiffFiles(contractFile, filepath.Join(dir, "missing"), fixtureNew); err == nil {
		t.Error("missing results file: expected error")
	}
	if _, err := BenchDiffFiles(filepath.Join(dir, "missing"), fixtureOld, fixtureNew); err == nil {
		t.Error("missing BENCHMARK.json: expected error")
	}

	for name, edit := range map[string]func(*benchResults){
		"missing workload": func(r *benchResults) { r.Workloads = r.Workloads[:1] },
		"renamed workload": func(r *benchResults) { r.Workloads[1].Name = "mix_tepid" },
		"missing metric":   func(r *benchResults) { delete(r.Workloads[0].EndToEnd.Metrics, "qmph") },
		"seed":             func(r *benchResults) { r.Seed = 7 },
		"seconds":          func(r *benchResults) { r.Seconds = 2 },
		"nproc":            func(r *benchResults) { r.Env["nproc"] = "8" },
	} {
		p := mutated(t, edit)
		if _, err := BenchDiffFiles(contractFile, fixtureOld, p); err == nil {
			t.Errorf("%s differs in NEW: expected error", name)
		}
		if _, err := BenchDiffFiles(contractFile, p, fixtureOld); err == nil {
			t.Errorf("%s differs in OLD: expected error", name)
		}
	}
}
