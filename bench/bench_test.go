package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"npdbench/internal/sqldb"
)

func TestSeedFixesQueryOrderAndSchedule(t *testing.T) {
	orders := func(seed int64) [][]int {
		m := newMixOrder(seed, 21)
		return [][]int{m.next(), m.next(), m.next()}
	}
	if !reflect.DeepEqual(orders(7), orders(7)) {
		t.Error("same seed gave different mix orders")
	}
	if reflect.DeepEqual(orders(7), orders(8)) {
		t.Error("different seeds gave the same mix orders")
	}
	for _, order := range orders(7) {
		seen := map[int]bool{}
		for _, qi := range order {
			seen[qi] = true
		}
		if len(order) != 21 || len(seen) != 21 {
			t.Errorf("a mix must run every query once, got %v", order)
		}
	}

	a := arrivalSchedule(7, 100, 3*time.Second, 21)
	if !reflect.DeepEqual(a, arrivalSchedule(7, 100, 3*time.Second, 21)) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, arrivalSchedule(8, 100, 3*time.Second, 21)) {
		t.Error("different seeds gave the same arrival schedule")
	}
	if len(a) != 300 {
		t.Fatalf("100 q/s over 3 s must offer 300 requests, got %d", len(a))
	}
	for i := range a {
		if a[i].due < 0 || a[i].due >= 3*time.Second || (i > 0 && a[i].due < a[i-1].due) {
			t.Fatalf("arrival %d due %v is out of order or outside the window", i, a[i].due)
		}
	}
	for block := 0; block+21 <= len(a); block += 21 {
		seen := map[int]bool{}
		for _, x := range a[block : block+21] {
			seen[x.query] = true
		}
		if len(seen) != 21 {
			t.Errorf("arrivals %d..%d are not one mix", block, block+20)
		}
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// A stalled request must show in the latency of the requests that were due
// behind it: the open loop times every request from when it was due.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	schedule := make([]arrival, 6)
	for i := range schedule {
		schedule[i] = arrival{due: time.Duration(i) * 10 * time.Millisecond}
	}
	send := func(_ context.Context, _ int, a arrival, _, _ int64) response {
		if a.due == 0 {
			time.Sleep(stall)
		}
		return response{status: 200}
	}
	res := runOpen(context.Background(), schedule, 100*time.Millisecond, 1, send, nil, []string{"q"})
	if res.attempted != len(schedule) {
		t.Fatalf("attempted %d of %d", res.attempted, len(schedule))
	}
	for i, r := range res.records {
		if i == 0 {
			continue
		}
		// Due 10·i ms after the stalled request and served only once it
		// returned: the stall is charged to them, less the head start.
		floor := stall - r.due
		if wait := r.sent - r.due; wait < floor {
			t.Errorf("request %d: queue wait %v, want at least %v", i, wait, floor)
		}
		if lat := res.samples[i].latency; lat < floor {
			t.Errorf("request %d: latency %v, want at least %v", i, lat, floor)
		}
	}
	if res.backlog == 0 {
		t.Error("requests finished after the window closed must count as backlog")
	}
	if late := res.records[1].released - res.records[1].due; late > stall/2 {
		t.Errorf("the generator itself must not wait for the stall, ran %v late", late)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "unfold", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "execute", Start: 20, End: 60},   // overlaps unfold by 10
		{ID: 4, Parent: 1, Name: "assemble", Start: 90, End: 120}, // sticks out by 20
		{ID: 5, Parent: 3, Name: "arm", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 100 - (20 + 30 + 10), // children cover [10,60) and [90,100)
		2: 20,
		3: 30,
		4: 30,
		5: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRollupOverOperatorTree(t *testing.T) {
	op := func(name, detail string, rows int, kids ...*sqldb.OpProfile) *sqldb.OpProfile {
		return &sqldb.OpProfile{Op: name, Detail: detail, Rows: rows, Children: kids}
	}
	loop := op("nested loop", "0 equi keys", 0)
	loop.Probes = 630
	keyed := op("nested loop", "inner", 4)
	keyed.Probes = 12
	hash := op("hash join", "2 equi keys", 6)
	hash.BuildRows, hash.Probes = 9, 47
	armHit := op("arm", "#1", 6, op("select", "", 6, op("scan", "a", 63), op("scan", "b", 57), hash))
	armHit.TimeUS = 100
	armEmpty := op("arm", "#2", 0, op("select", "", 0, op("scan", "a", 63), op("filter", "x > 1", 5), loop, keyed))
	armEmpty.TimeUS = 300
	tree := op("query", "", 6, op("union all", "2 arms", 6, armHit, armEmpty), op("distinct", "", 5))

	r := newRollup()
	r.add(tree)
	acc := mixAcc{}
	r.into(acc, 100, 2)
	for name, want := range map[string]float64{
		"sqldb.scan.ops_per_mix":                 3,
		"sqldb.scan.rows_out_per_mix":            183,
		"sqldb.filter.ops_per_mix":               1,
		"sqldb.hash_join.ops_per_mix":            1,
		"sqldb.hash_join.build_rows_per_mix":     9,
		"sqldb.hash_join.probes_per_mix":         47,
		"sqldb.nested_loop.ops_per_mix":          2,
		"sqldb.nested_loop.pairs_per_mix":        642,
		"sqldb.nested_loop.zero_key_ops_per_mix": 1,
		"sqldb.nested_loop.rows_out_per_mix":     4,
		"sqldb.union.ops_per_mix":                1,
		"sqldb.distinct.ops_per_mix":             1,
		"sqldb.sort.ops_per_mix":                 0,
		"sqldb.scan_amplification":               183.0 / 200,
		"sqldb.empty_arm_ratio":                  0.5,
		"sqldb.empty_arm_time_share":             0.75,
	} {
		if got := acc[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestDigestIgnoresRowOrderButNotContent(t *testing.T) {
	a := [][]cell{{{kind: "uri", value: "x"}, {kind: "literal", value: "1", datatype: "int"}}, {{kind: "uri", value: "y"}, {}}}
	b := [][]cell{a[1], a[0]}
	vars := []string{"s", "n"}
	if digestRows(vars, a) != digestRows(vars, b) {
		t.Error("digest depends on row order")
	}
	c := [][]cell{a[0], {{kind: "uri", value: "y"}, {kind: "literal", value: ""}}}
	if digestRows(vars, a) == digestRows(vars, c) {
		t.Error("digest does not tell an unbound cell from an empty literal")
	}
	if digestRows(vars, a) == digestRows(vars, [][]cell{a[0], a[1], a[1]}) {
		t.Error("digest does not count duplicate rows")
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMirrorsTheProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		e := bf.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
	}
	catalog := layerCatalog()
	if len(bf.PerLayer) != len(catalog) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(catalog))
	}
	for i, d := range catalog {
		if bf.PerLayer[i].Name != d.name || bf.PerLayer[i].Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %s (%s)", i, bf.PerLayer[i], d.name, d.unit)
		}
	}
}

// The smoke run drives every workload through both passes for a fraction of
// a second and asserts that each metric BENCHMARK.json names comes out
// exactly once with its unit, and that every answer matched the oracle.
func TestSmokeEveryMetricOnce(t *testing.T) {
	bf := readBenchmarkFile(t)
	for i := range workloads {
		w := workloads[i]
		if testing.Short() && w.seedScale > 0.02 {
			continue // -short keeps to the two 371-row workloads
		}
		// Keep the instance, and so the expected answers, but not the
		// repeated warm-up and set-up: the smoke run is about the plumbing.
		w.warmup = 1
		for _, traced := range []bool{false, true} {
			seconds := 0.01 // one mix
			if w.rate > 0 && traced {
				seconds = 3 // two open-loop sections of a second each
			}
			out, err := runWorkload(context.Background(), runConfig{w: &w, seed: 3, seconds: seconds, trace: traced, setups: 1, dir: "."})
			if errors.Is(err, errGeneratorLate) {
				// A machine busy with other test packages cannot keep an
				// arrival schedule; that is not what this test is about.
				t.Logf("%s traced=%v skipped: %v", w.name, traced, err)
				continue
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.correct() {
				t.Errorf("%s traced=%v: %d of %d checks failed: %s", w.name, traced, out.failed, out.attempted, out.firstBad)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
				if len(out.spans) == 0 {
					t.Errorf("%s: the traced pass recorded no spans", w.name)
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]int{}
			for _, m := range out.metrics.list {
				got[m.Name]++
				if unit, ok := want[m.Name]; !ok {
					t.Errorf("%s traced=%v: %s is not in BENCHMARK.json", w.name, traced, m.Name)
				} else if unit != m.Unit || m.Unit == "" {
					t.Errorf("%s traced=%v: %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, m.Unit, unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			for name := range want {
				if got[name] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.name, traced, name, got[name])
				}
			}
		}
	}
}
