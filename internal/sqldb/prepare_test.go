package sqldb

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goldenShapes reads testdata/shapes.golden into its blocks, keyed by their
// "-- profile: sql" header line.
func goldenShapes(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "shapes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string]string)
	for _, b := range strings.Split(strings.TrimSuffix(string(data), "\n\n"), "\n\n") {
		header, body, _ := strings.Cut(b, "\n")
		blocks[header] = body
	}
	return blocks
}

// TestPreparedSharedByConcurrentClients prepares every shape query once
// and executes each Prepared from 8 goroutines at once, sequentially and
// with 4 workers: a Prepared is immutable, so every execution must render
// the shapes.golden answer (the race detector checks the sharing).
func TestPreparedSharedByConcurrentClients(t *testing.T) {
	golden := goldenShapes(t)
	pool := NewPool(4)
	for _, profile := range []Profile{ProfileHashJoin, ProfileSortMerge} {
		db := nullDB(t)
		db.Profile = profile
		for _, sql := range shapeQueries {
			header := "-- " + profile.String() + ": " + sql
			want, ok := golden[header]
			if !ok {
				t.Fatalf("no golden block %q", header)
			}
			p, err := Prepare(db, MustParse(sql))
			if err != nil {
				t.Fatalf("[%v] %q: %v", profile, sql, err)
			}
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					opt := ExecOptions{Parallelism: 1}
					if c%2 == 1 {
						opt = ExecOptions{Parallelism: 4, Pool: pool}
					}
					res, err := p.Execute(opt)
					if err != nil {
						t.Errorf("[%v] %q client %d: %v", profile, sql, c, err)
						return
					}
					if got := renderRes(res); got != want {
						t.Errorf("[%v] %q client %d:\ngot:\n%s\nwant:\n%s", profile, sql, c, got, want)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestPreparedSeesInserts checks that a Prepared reads table rows at
// execute time: rows inserted after Prepare are in the next answer.
func TestPreparedSeesInserts(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	p, err := Prepare(db, MustParse(
		"SELECT e.name, s.product FROM TEmployee e, TSellsProduct s WHERE e.id = s.id AND e.branch = 'B2'"))
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Execute(ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 0 {
		t.Fatalf("before insert: %d rows, want 0", len(before.Rows))
	}
	if err := db.Insert("TSellsProduct", Row{NewInt(3), NewString("p4")}); err != nil {
		t.Fatal(err)
	}
	after, err := p.Execute(ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRes(after); got != "name,product\nMara|p4" {
		t.Fatalf("after insert:\n%s", got)
	}
}

// TestPrepareReportsUnknownNames checks that binding errors surface from
// Prepare, with the messages executing the statement used to raise.
func TestPrepareReportsUnknownNames(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	for sql, want := range map[string]string{
		"SELECT nosuch FROM TEmployee":                                  "sqldb: unknown column nosuch",
		"SELECT name FROM TEmployee WHERE e.id = 1":                     "sqldb: unknown column e.id",
		"SELECT name FROM TEmployee ORDER BY nosuch":                    "sqldb: unknown column nosuch",
		"SELECT name FROM TNoSuch":                                      "sqldb: unknown table TNoSuch",
		"SELECT v.x FROM (SELECT name FROM TNoSuch) AS v":               "sqldb: unknown table TNoSuch",
		"SELECT id FROM TEmployee UNION SELECT id, name FROM TEmployee": "sqldb: UNION arms have 1 vs 2 columns",
	} {
		_, err := Prepare(db, MustParse(sql))
		if err == nil || err.Error() != want {
			t.Errorf("Prepare(%q) = %v, want %q", sql, err, want)
		}
	}
}

// TestPreparedUnionAllocs bounds what one execution of a prepared 3-arm
// union allocates: rows, relations and per-execution state only. Binding
// every name on every execution took 135 allocations here; the bound is
// half of that.
func TestPreparedUnionAllocs(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	p, err := Prepare(db, MustParse(`SELECT e.name FROM TEmployee e, TSellsProduct s WHERE e.id = s.id
		UNION ALL SELECT name FROM TEmployee WHERE branch = 'B1'
		UNION ALL SELECT product FROM TProduct WHERE size = 'big'`))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Execute(ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 68 {
		t.Errorf("one execution allocates %.0f times, want at most 68", allocs)
	}
}
