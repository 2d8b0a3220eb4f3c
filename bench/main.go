// Command bench is the repository's benchmark: four workloads over the
// whole stack (SPARQL text in → SPARQL-JSON bytes out), end-to-end metrics
// measured with tracing off, per-layer metrics from a separate traced pass,
// and every answer checked against an oracle. See README.md.
//
//	go run ./bench                                   # all workloads, untraced then traced
//	go run ./bench --workload mix_warm --seed 1 --seconds 20 --trace 0
//	go run ./bench -regen                            # rewrite bench/expected/*.json
//	go run ./bench -selfcheck                        # A/A: two full sets must agree
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// endToEndDef is one end-to-end metric with its regression bound: the share
// of the parent's median by which it may get worse. BENCHMARK.json mirrors
// this table.
type endToEndDef struct {
	name, unit, better string
	bound              float64
}

var endToEndDefs = []endToEndDef{
	{"setup_s", "s", "lower", 0.25},
	{"mix_s_p50", "s", "lower", 0.25},
	{"mix_s_p75", "s", "lower", 0.25},
	{"qmph", "mixes/h", "higher", 0.25},
	{"req_ms_p50", "ms", "lower", 0.25},
	{"req_ms_p97", "ms", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.001},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all, untraced then traced)")
		seed         = flag.Int64("seed", 1, "workload seed: per-mix query order and arrival schedule")
		seconds      = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics, traced")
		dir          = flag.String("dir", "bench", "the benchmark's directory (expected/ is read from it, out/ written to it)")
		doRegen      = flag.Bool("regen", false, "rewrite expected/<workload>.json from the materialized triple store")
		doSelfcheck  = flag.Bool("selfcheck", false, "run the full set twice and compare within the bounds (A/A)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, *workloadName, *seed, *seconds, *trace, *dir, *doRegen, *doSelfcheck)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, workloadName string, seed int64, seconds float64, trace int, dir string, doRegen, doSelfcheck bool) error {
	switch {
	case doRegen:
		return regen(dir)
	case doSelfcheck:
		return selfcheck(ctx, seed, seconds, dir)
	case workloadName == "":
		printEnv()
		_, err := runAll(ctx, seed, seconds, dir, true)
		return err
	}
	w := workloadByName(workloadName)
	if w == nil {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	out, err := runWorkload(ctx, runConfig{w: w, seed: seed, seconds: seconds, trace: trace == 1, setups: setupRepeats, dir: dir})
	if err != nil {
		return err
	}
	out.metrics.print("")
	if out.spans != nil {
		if err := writeJSONL(filepath.Join(dir, "out", "trace."+w.name+".jsonl"), out.spans); err != nil {
			return err
		}
	}
	if out.firstBad != "" {
		fmt.Println("# first failed check:", out.firstBad)
	}
	return printResultLine(out)
}

// resultLine is the one JSON object a driver reads from the last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(out runOutput) error {
	line := resultLine{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range out.metrics.list {
		line.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// workloadReport is one workload's two passes in results.json.
type workloadReport struct {
	Name     string     `json:"name"`
	Why      string     `json:"why"`
	EndToEnd resultLine `json:"end_to_end"`
	PerLayer resultLine `json:"per_layer"`
}

// runPass runs one pass of one workload in a process of its own, exactly as
// a driver would, so that no pass inherits another's heap, caches or
// interned strings. It echoes the child's metric lines and returns the
// parsed result line.
func runPass(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, dir string) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace, "-dir", dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s --trace %s: %w", w.name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return resultLine{}, fmt.Errorf("%s --trace %s: parsing the result line: %w", w.name, trace, err)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("  " + l)
	}
	return res, nil
}

// runAll runs every workload untraced and then traced, each pass in its own
// process, prints every metric by name, and (when write is set) leaves
// results.json beside the trace.<workload>.jsonl files in dir/out.
func runAll(ctx context.Context, seed int64, seconds float64, dir string, write bool) ([]workloadReport, error) {
	var reports []workloadReport
	for i := range workloads {
		w := &workloads[i]
		rep := workloadReport{Name: w.name, Why: w.why}
		for _, traced := range []bool{false, true} {
			pass := "end-to-end (tracing off)"
			if traced {
				pass = "per-layer (traced)"
			}
			fmt.Printf("== %s: %s\n", w.name, pass)
			res, err := runPass(ctx, w, seed, seconds, traced, dir)
			if err != nil {
				return nil, err
			}
			fmt.Printf("  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
			if traced {
				rep.PerLayer = res
			} else {
				rep.EndToEnd = res
			}
		}
		reports = append(reports, rep)
	}
	if !write {
		return reports, nil
	}
	doc := struct {
		Env       map[string]string `json:"env"`
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Workloads []workloadReport  `json:"workloads"`
	}{environment(), seed, seconds, reports}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "out", "results.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Println("wrote", path)
	return reports, nil
}

// environment records what the numbers were measured on.
func environment() map[string]string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func printEnv() {
	env := environment()
	var parts []string
	for _, k := range []string{"nproc", "gomaxprocs", "go", "commit"} {
		parts = append(parts, k+"="+env[k])
	}
	fmt.Println("# " + strings.Join(parts, " "))
}
