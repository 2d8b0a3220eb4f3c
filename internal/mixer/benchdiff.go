package mixer

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// Benchmark differ: `mixer -benchdiff OLD NEW` compares two
// bench/out/results.json files written by `go run ./bench`. The ruler is
// the repository's BENCHMARK.json: each end-to-end metric is judged in
// that file's direction against that file's bound, per workload, so the
// caller has nothing to tune. Per-layer metrics carry no bound; the ones
// that moved are listed for attribution and never fail the diff.

// benchContract is the part of BENCHMARK.json the differ judges by.
type benchContract struct {
	EndToEnd []benchMetricDef `json:"end_to_end"`
	PerLayer []benchMetricDef `json:"per_layer"`
}

type benchMetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// benchResults is a bench/out/results.json document.
type benchResults struct {
	Env       map[string]string `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []benchWorkload   `json:"workloads"`
}

type benchWorkload struct {
	Name     string    `json:"name"`
	EndToEnd benchPass `json:"end_to_end"`
	PerLayer benchPass `json:"per_layer"`
}

// benchPass is one pass's result line: the untraced pass carries the
// end-to-end metrics, the traced pass the per-layer ones.
type benchPass struct {
	Correct bool                  `json:"correct"`
	Metrics map[string]benchValue `json:"metrics"`
}

type benchValue struct {
	Value float64 `json:"value"`
}

// DiffEntry is one workload × metric comparison.
type DiffEntry struct {
	Workload string
	Metric   string
	Unit     string
	Old, New float64
	// Delta is the signed fractional change (New-Old)/Old; zero when Old is
	// zero, where no relative change exists.
	Delta float64
	// Bound is the metric's BENCHMARK.json regression bound (end-to-end
	// entries only).
	Bound float64
	// Verdict is "ok", "improved" or "regressed" for an end-to-end entry,
	// "moved" or "changed" (a count-unit metric that differs at all) for a
	// per-layer one.
	Verdict string
}

// DiffReport is the full comparison.
type DiffReport struct {
	EndToEnd []DiffEntry
	// PerLayer lists only the per-layer metrics that moved.
	PerLayer []DiffEntry
	// Incorrect names the passes of NEW whose answer check failed
	// ("correct": false).
	Incorrect   []string
	Regressions int
	Improved    int
}

// Failed reports whether NEW is worse than OLD by the benchmark's own
// rules: a metric past its bound, any drop in ok_ratio, or a failed answer
// check.
func (r *DiffReport) Failed() bool {
	return r.Regressions > 0 || len(r.Incorrect) > 0
}

// BenchDiffFiles diffs two results.json files under the bounds and
// directions of the BENCHMARK.json at contractPath. It refuses pairs that
// were not measured alike (seed, seconds, nproc) or that do not cover the
// same workloads.
func BenchDiffFiles(contractPath, oldPath, newPath string) (*DiffReport, error) {
	var contract benchContract
	if err := readJSON(contractPath, &contract); err != nil {
		return nil, err
	}
	if len(contract.EndToEnd) == 0 {
		return nil, fmt.Errorf("benchdiff: %s: no end_to_end metrics", contractPath)
	}
	oldRes, err := readResults(oldPath)
	if err != nil {
		return nil, err
	}
	newRes, err := readResults(newPath)
	if err != nil {
		return nil, err
	}
	if oldRes.Seed != newRes.Seed || oldRes.Seconds != newRes.Seconds || oldRes.Env["nproc"] != newRes.Env["nproc"] {
		return nil, fmt.Errorf("benchdiff: runs are not comparable: seed %d/%d, seconds %g/%g, nproc %s/%s",
			oldRes.Seed, newRes.Seed, oldRes.Seconds, newRes.Seconds, oldRes.Env["nproc"], newRes.Env["nproc"])
	}
	newByName := make(map[string]benchWorkload, len(newRes.Workloads))
	for _, w := range newRes.Workloads {
		newByName[w.Name] = w
	}
	if len(newByName) != len(oldRes.Workloads) {
		return nil, fmt.Errorf("benchdiff: %s has %d workload(s), %s has %d",
			oldPath, len(oldRes.Workloads), newPath, len(newByName))
	}

	// Per-layer metrics have no bound of their own: a non-count one is
	// listed once it moves further than the widest end-to-end bound.
	widest := 0.0
	for _, def := range contract.EndToEnd {
		widest = math.Max(widest, def.Bound)
	}
	rep := &DiffReport{}
	for _, ow := range oldRes.Workloads {
		nw, ok := newByName[ow.Name]
		if !ok {
			return nil, fmt.Errorf("benchdiff: %s: workload %s is missing", newPath, ow.Name)
		}
		if !nw.EndToEnd.Correct {
			rep.Incorrect = append(rep.Incorrect, ow.Name+" end_to_end")
		}
		if !nw.PerLayer.Correct {
			rep.Incorrect = append(rep.Incorrect, ow.Name+" per_layer")
		}
		for _, def := range contract.EndToEnd {
			o, okOld := ow.EndToEnd.Metrics[def.Name]
			n, okNew := nw.EndToEnd.Metrics[def.Name]
			if !okOld || !okNew {
				return nil, fmt.Errorf("benchdiff: workload %s: end-to-end metric %s is missing", ow.Name, def.Name)
			}
			e := newDiffEntry(ow.Name, def, o.Value, n.Value)
			e.Verdict = judgeEndToEnd(def, e)
			switch e.Verdict {
			case "regressed":
				rep.Regressions++
			case "improved":
				rep.Improved++
			}
			rep.EndToEnd = append(rep.EndToEnd, e)
		}
		for _, def := range contract.PerLayer {
			o, okOld := ow.PerLayer.Metrics[def.Name]
			n, okNew := nw.PerLayer.Metrics[def.Name]
			if !okOld || !okNew || o.Value == n.Value {
				continue
			}
			e := newDiffEntry(ow.Name, def, o.Value, n.Value)
			switch {
			case def.Unit == "count":
				e.Verdict = "changed"
			case o.Value == 0 || math.Abs(e.Delta) > widest:
				e.Verdict = "moved"
			default:
				continue
			}
			rep.PerLayer = append(rep.PerLayer, e)
		}
	}
	return rep, nil
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchdiff: %w", err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	return nil
}

func readResults(path string) (benchResults, error) {
	var res benchResults
	if err := readJSON(path, &res); err != nil {
		return res, err
	}
	if len(res.Workloads) == 0 {
		return res, fmt.Errorf("benchdiff: %s: not a bench results.json (no workloads)", path)
	}
	return res, nil
}

func newDiffEntry(workload string, def benchMetricDef, o, n float64) DiffEntry {
	e := DiffEntry{Workload: workload, Metric: def.Name, Unit: def.Unit, Old: o, New: n, Bound: def.Bound}
	if o != 0 {
		e.Delta = (n - o) / o
	}
	return e
}

// judgeEndToEnd classifies one end-to-end entry. A zero baseline has no
// relative change to hold against the bound (dividing by it would judge on
// Inf/NaN), so any move off zero is judged by its direction alone. ok_ratio
// regresses on any drop, however small: a larger share of failed operations
// is never inside a noise bound.
func judgeEndToEnd(def benchMetricDef, e DiffEntry) string {
	worse, bound := e.Delta, e.Bound
	if e.Old == 0 {
		worse, bound = e.New, 0
	}
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound, def.Name == "ok_ratio" && e.New < e.Old:
		return "regressed"
	case worse < -bound:
		return "improved"
	default:
		return "ok"
	}
}

// String renders the end-to-end table, the moved per-layer metrics and a
// summary line.
func (r *DiffReport) String() string {
	var sb strings.Builder
	tab := newTextTable("workload", "metric", "unit", "old", "new", "delta", "bound", "verdict")
	for _, e := range r.EndToEnd {
		tab.add(e.Workload, e.Metric, e.Unit, fmtValue(e.Old), fmtValue(e.New), fmtDelta(e),
			fmt.Sprintf("%.1f%%", e.Bound*100), e.Verdict)
	}
	sb.WriteString(tab.String())
	if len(r.PerLayer) > 0 {
		sb.WriteString("\nper-layer metrics that moved:\n")
		tab = newTextTable("workload", "metric", "unit", "old", "new", "delta", "verdict")
		for _, e := range r.PerLayer {
			tab.add(e.Workload, e.Metric, e.Unit, fmtValue(e.Old), fmtValue(e.New), fmtDelta(e), e.Verdict)
		}
		sb.WriteString(tab.String())
	}
	for _, pass := range r.Incorrect {
		fmt.Fprintf(&sb, "\nincorrect answers: %s", pass)
	}
	fmt.Fprintf(&sb, "\nbenchdiff: %d end-to-end comparisons, %d regressed, %d improved, %d incorrect pass(es), %d per-layer metric(s) moved\n",
		len(r.EndToEnd), r.Regressions, r.Improved, len(r.Incorrect), len(r.PerLayer))
	return sb.String()
}

func fmtValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

func fmtDelta(e DiffEntry) string {
	switch {
	case e.Old == e.New:
		return "±0%"
	case e.Old == 0:
		return "-" // off a zero baseline: no percentage exists
	default:
		return fmt.Sprintf("%+.1f%%", e.Delta*100)
	}
}
