package sqldb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parTestDB builds an instance big enough to cross every parallel
// threshold: nums (6000 rows) and other (4000 rows).
func parTestDB(t testing.TB, profile Profile) *Database {
	t.Helper()
	db := NewDatabase("par")
	db.Profile = profile
	if _, err := db.CreateTable(&TableDef{
		Name: "nums",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "val", Type: TInt},
			{Name: "grp", Type: TText},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatalf("create nums: %v", err)
	}
	if _, err := db.CreateTable(&TableDef{
		Name: "other",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "tag", Type: TText},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatalf("create other: %v", err)
	}
	for i := 0; i < 6000; i++ {
		row := Row{NewInt(int64(i)), NewInt(int64((i * 37) % 1000)), NewString("g" + strconv.Itoa(i%5))}
		if err := db.InsertUnchecked("nums", row); err != nil {
			t.Fatalf("insert nums: %v", err)
		}
	}
	for i := 0; i < 4000; i++ {
		row := Row{NewInt(int64(i * 2)), NewString("t" + strconv.Itoa(i%7))}
		if err := db.InsertUnchecked("other", row); err != nil {
			t.Fatalf("insert other: %v", err)
		}
	}
	return db
}

// renderResult is an order-sensitive rendering: two results render equal
// exactly when they are bit-identical (same columns, same rows, same
// order).
func renderResult(res *Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for _, v := range row {
			sb.WriteString(v.Key())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// parallelQueries covers every parallel operator and the determinism-
// sensitive shapes: morsel filters, partitioned hash joins, union-arm
// fan-out, UNION dedup, ORDER BY and LIMIT.
var parallelQueries = []string{
	`SELECT id, val FROM nums WHERE val < 500 AND grp = 'g1'`,
	`SELECT n.id, n.grp, o.tag FROM nums n, other o WHERE n.id = o.id AND n.val < 800`,
	`SELECT id FROM nums WHERE val < 300 UNION ALL SELECT id FROM other WHERE id < 4000 UNION ALL SELECT id FROM nums WHERE grp = 'g2'`,
	`SELECT grp FROM nums WHERE val < 900 UNION SELECT tag FROM other WHERE id < 2000`,
	`SELECT id, val FROM nums WHERE grp = 'g3' ORDER BY val DESC, id LIMIT 50`,
	`SELECT n.grp, o.tag FROM nums n, other o WHERE n.id = o.id UNION SELECT grp, 'x' FROM nums WHERE val < 100 ORDER BY 1`,
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, profile := range []Profile{ProfileHashJoin, ProfileSortMerge} {
		db := parTestDB(t, profile)
		for _, q := range parallelQueries {
			stmt, err := Parse(q)
			if err != nil {
				t.Fatalf("%s [%s]: parse: %v", q, profile, err)
			}
			seq, err := db.ExecSelect(stmt)
			if err != nil {
				t.Fatalf("%s [%s]: sequential: %v", q, profile, err)
			}
			var stats ExecStats
			par, err := db.ExecSelectOpts(stmt, ExecOptions{Parallelism: 4, Stats: &stats})
			if err != nil {
				t.Fatalf("%s [%s]: parallel: %v", q, profile, err)
			}
			if got, want := renderResult(par), renderResult(seq); got != want {
				t.Errorf("%s [%s]: parallel result differs from sequential\nparallel:\n%s\nsequential:\n%s", q, profile, got, want)
			}
			if stats.Tasks.Load() == 0 {
				t.Errorf("%s [%s]: expected parallel tasks, got none", q, profile)
			}
		}
	}
}

func TestParallelJoinUsesPartitions(t *testing.T) {
	db := parTestDB(t, ProfileHashJoin)
	stmt, err := Parse(`SELECT n.id FROM nums n, other o WHERE n.id = o.id`)
	if err != nil {
		t.Fatal(err)
	}
	var stats ExecStats
	if _, err := db.ExecSelectOpts(stmt, ExecOptions{Parallelism: 4, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.JoinPartitions.Load() == 0 {
		t.Error("expected partitioned hash join, got no partitions")
	}
	if stats.Morsels.Load() == 0 {
		t.Error("expected morsel-parallel probe, got no morsels")
	}
}

func TestParallelUnionCountsArms(t *testing.T) {
	db := parTestDB(t, ProfileHashJoin)
	stmt, err := Parse(`SELECT id FROM nums WHERE val < 10 UNION ALL SELECT id FROM nums WHERE val < 20 UNION ALL SELECT id FROM nums WHERE val < 30`)
	if err != nil {
		t.Fatal(err)
	}
	var stats ExecStats
	if _, err := db.ExecSelectOpts(stmt, ExecOptions{Parallelism: 4, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if got := stats.UnionArms.Load(); got != 3 {
		t.Errorf("UnionArms = %d, want 3", got)
	}
}

// TestParallelSharedPool runs many statements against one shared pool to
// exercise the cross-statement helper accounting (tokens must never leak:
// later statements still get helpers).
func TestParallelSharedPool(t *testing.T) {
	db := parTestDB(t, ProfileHashJoin)
	pool := NewPool(4)
	stmt, err := Parse(`SELECT id FROM nums WHERE val < 400 UNION ALL SELECT id FROM other WHERE id < 3000`)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for i := 0; i < 20; i++ {
		var stats ExecStats
		res, err := db.ExecSelectOpts(stmt, ExecOptions{Parallelism: 4, Pool: pool, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		got := renderResult(res)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("iteration %d: result changed across executions", i)
		}
		if stats.Workers.Load() == 0 {
			t.Fatalf("iteration %d: pool lent no helpers (token leak?)", i)
		}
	}
}

// TestParStateDeterministicError checks first-error propagation: whatever
// the scheduling, run reports the failing task with the lowest index — the
// error sequential execution would hit first.
func TestParStateDeterministicError(t *testing.T) {
	pool := NewPool(4)
	ps := &parState{pool: pool, par: 4, stats: &ExecStats{}}
	errAt := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for trial := 0; trial < 100; trial++ {
		_, err := ps.run(true, 64, func(_, i int) error {
			if i == 17 || i == 53 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 17 failed" {
			t.Fatalf("trial %d: err = %v, want task 17's error", trial, err)
		}
	}
}

// TestParStateNestedNoDeadlock nests parallel drivers deeper than the pool
// has helpers; the non-blocking borrow rule means the callers always make
// progress alone.
func TestParStateNestedNoDeadlock(t *testing.T) {
	pool := NewPool(2) // one helper total
	ps := &parState{pool: pool, par: 2, stats: &ExecStats{}}
	_, err := ps.run(true, 8, func(_, i int) error {
		_, innerErr := ps.run(true, 8, func(_, j int) error {
			_, deepest := ps.run(true, 4, func(_, k int) error { return nil })
			return deepest
		})
		return innerErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParStateRunCoversAllTasks(t *testing.T) {
	pool := NewPool(4)
	ps := &parState{pool: pool, par: 4, stats: &ExecStats{}}
	hit := make([]bool, 500)
	if _, err := ps.run(true, len(hit), func(_, i int) error {
		hit[i] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("task %d never ran", i)
		}
	}
}

func TestPoolTryAcquireBounded(t *testing.T) {
	pool := NewPool(4) // 3 helpers
	if got := pool.tryAcquire(10); got != 3 {
		t.Fatalf("tryAcquire(10) = %d, want 3", got)
	}
	if got := pool.tryAcquire(1); got != 0 {
		t.Fatalf("drained pool lent %d helpers", got)
	}
	pool.release(3)
	if got := pool.tryAcquire(2); got != 2 {
		t.Fatalf("tryAcquire(2) after release = %d, want 2", got)
	}
	pool.release(2)
}

// TestDistinctKeySemantics pins the hash-based dedup to RowKey semantics:
// values that Key() identifies (int 2 and float 2.0) must still collapse,
// values it distinguishes must survive.
func TestDistinctKeySemantics(t *testing.T) {
	r := &relation{
		rows: []Row{
			{NewInt(2)},
			{NewFloat(2.0)}, // integral float: same key class as int 2
			{NewFloat(2.5)},
			{NewString("2")}, // string "2" is not int 2
			{Value{}},        // NULL
			{Value{}},
			{NewBool(true)},
			{NewInt(2)},
		},
	}
	kept := distinctRows(r).rows
	want := make(map[string]bool)
	var wantOrder []string
	for _, row := range r.rows {
		k := RowKey(row, []int{0})
		if !want[k] {
			want[k] = true
			wantOrder = append(wantOrder, k)
		}
	}
	if len(kept) != len(wantOrder) {
		t.Fatalf("distinctRows kept %d rows, want %d", len(kept), len(wantOrder))
	}
	for i, row := range kept {
		if got := RowKey(row, []int{0}); got != wantOrder[i] {
			t.Errorf("row %d: key %q, want %q", i, got, wantOrder[i])
		}
	}
}

// opSequence lists a profile's operators in preorder with their row
// counts, leaving out times and the parallel notes in details.
func opSequence(p *OpProfile) []string {
	out := []string{fmt.Sprintf("%s rows=%d", p.Op, p.Rows)}
	for _, c := range p.Children {
		out = append(out, opSequence(c)...)
	}
	return out
}

// TestParallelProfileAnnotations checks EXPLAIN ANALYZE stays truthful
// under parallel execution: per-arm nodes with timings and a workers=
// annotation on the union — and that one worker reports the same
// operators, arm nodes included.
func TestParallelProfileAnnotations(t *testing.T) {
	db := parTestDB(t, ProfileHashJoin)
	stmt, err := Parse(`SELECT id FROM nums WHERE val < 300 UNION ALL SELECT id FROM other WHERE id < 3000`)
	if err != nil {
		t.Fatal(err)
	}
	res, prof, err := db.ProfileSelectOpts(stmt, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := db.ExecSelect(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(res) != renderResult(seq) {
		t.Error("profiled parallel result differs from sequential")
	}
	union := prof.Find("union all")
	if union == nil {
		t.Fatal("no union node in profile")
	}
	if !strings.Contains(union.Detail, "workers=") {
		t.Errorf("union detail %q lacks workers annotation", union.Detail)
	}
	arm := prof.Find("arm")
	if arm == nil {
		t.Fatal("no per-arm node in profile")
	}
	if arm.Rows == 0 {
		t.Error("arm node has no row count")
	}
	_, prof1, err := db.ProfileSelectOpts(stmt, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := opSequence(prof1), opSequence(prof); !slices.Equal(got, want) {
		t.Errorf("one worker profiles operators\n%s\nfour workers\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestParallelErrorPropagation runs a failing statement in parallel and
// checks the error matches the sequential one.
func TestParallelErrorPropagation(t *testing.T) {
	db := parTestDB(t, ProfileHashJoin)
	// Arm 2 has mismatched arity: both modes must report the same error.
	stmt, err := Parse(`SELECT id FROM nums WHERE val < 100 UNION ALL SELECT id, val FROM nums WHERE val < 200`)
	if err != nil {
		t.Fatal(err)
	}
	_, seqErr := db.ExecSelect(stmt)
	_, parErr := db.ExecSelectOpts(stmt, ExecOptions{Parallelism: 4})
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected errors, got seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("parallel error %q differs from sequential %q", parErr, seqErr)
	}
}

// legacyDistinctRows is the pre-optimization implementation (per-row key
// strings through RowKey): kept as the BenchmarkDistinct baseline.
func legacyDistinctRows(r *relation) *relation {
	out := &relation{rows: make([]Row, 0, len(r.rows))}
	all := make([]int, len(r.rows[0]))
	for i := range all {
		all[i] = i
	}
	seen := make(map[string]bool, len(r.rows))
	for _, row := range r.rows {
		k := RowKey(row, all)
		if seen[k] {
			continue
		}
		seen[k] = true
		out.rows = append(out.rows, row)
	}
	return out
}

func benchRelation() *relation {
	r := &relation{}
	for i := 0; i < 8192; i++ {
		r.rows = append(r.rows, Row{
			NewInt(int64(i % 1024)),
			NewString("value-" + strconv.Itoa(i%512)),
			NewFloat(float64(i%256) + 0.5),
		})
	}
	return r
}

// BenchmarkDistinct compares the dedup path before (string keys) and after
// (reusable byte buffer + hash) the allocation rework.
func BenchmarkDistinct(b *testing.B) {
	r := benchRelation()
	b.Run("before-string-keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyDistinctRows(r)
		}
	})
	b.Run("after-hash-buffer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			distinctRows(r)
		}
	})
	if len(legacyDistinctRows(r).rows) != len(distinctRows(r).rows) {
		b.Fatal("implementations disagree")
	}
}
