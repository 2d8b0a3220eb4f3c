package sqldb

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"npdbench/internal/obs"
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

// TestJoinEmitsOnlyReadColumns checks that every join of a 3-way join
// materializes only the columns something above it reads: the first join
// keeps e.name and the next step's key s.product, the second e.name and
// p.size, so each charges rows × 2 × approxValueBytes, not the full width
// of both inputs. The FROM list and the explicit JOINs narrow alike.
// Filters and unions, which build no row, charge no bytes.
func TestJoinEmitsOnlyReadColumns(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	for _, sql := range []string{
		"SELECT e.name, p.size FROM TEmployee e, TSellsProduct s, TProduct p WHERE e.id = s.id AND s.product = p.product",
		"SELECT e.name, p.size FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id JOIN TProduct p ON s.product = p.product",
	} {
		p, err := Prepare(db, MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		usage := &obs.Usage{}
		res, prof, err := p.ExecuteProfiled(ExecOptions{Usage: usage})
		if err != nil {
			t.Fatal(err)
		}
		const width = 2
		var joins, joinRows int
		var walk func(*OpProfile)
		walk = func(n *OpProfile) {
			if n.Op == "hash join" {
				joins++
				joinRows += n.Rows
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(prof)
		if joins != 2 || len(res.Rows) != 4 {
			t.Fatalf("%q: %d joins, %d rows; want 2 joins, 4 rows:\n%s", sql, joins, len(res.Rows), prof.Render())
		}
		// The projection charges its own output; the joins charge the rest.
		want := int64(joinRows+len(res.Rows)) * width * approxValueBytes
		if got := usage.Snapshot().BytesMaterialized; got != want {
			t.Errorf("%q: %d bytes materialized, want %d (%d join rows at width %d)", sql, got, want, joinRows, width)
		}
	}

	// Operators that pass on rows they were given charge none: a filter
	// over a SELECT * builds no row, and a UNION ALL charges each arm's
	// projected rows once, not again when it concatenates them.
	for _, c := range []struct {
		sql        string
		rows, want int64
	}{
		{"SELECT * FROM TEmployee WHERE branch = 'B1'", 2, 0},
		{"SELECT name FROM TEmployee WHERE branch = 'B1' UNION ALL SELECT product FROM TProduct", 6, 6 * approxValueBytes},
	} {
		p, err := Prepare(db, MustParse(c.sql))
		if err != nil {
			t.Fatal(err)
		}
		usage := &obs.Usage{}
		res, err := p.Execute(ExecOptions{Usage: usage})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(res.Rows)) != c.rows {
			t.Fatalf("%q: %d rows, want %d", c.sql, len(res.Rows), c.rows)
		}
		if got := usage.Snapshot().BytesMaterialized; got != c.want {
			t.Errorf("%q: %d bytes materialized, want %d", c.sql, got, c.want)
		}
	}
}
