package sqldb

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateShapes = flag.Bool("update", false, "rewrite testdata/shapes.golden from the current executor")

// renderRes flattens a result set for comparison.
func renderRes(res *Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		sb.WriteByte('\n')
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

// nullDB is testDB plus a typed table carrying NULLs in every column kind,
// so filters, joins, DISTINCT and aggregates see NULLs on int, float, bool,
// date and text columns alike.
func nullDB(t *testing.T) *Database {
	t.Helper()
	db := testDB(t, ProfileHashJoin)
	if _, err := db.CreateTable(&TableDef{
		Name: "TTyped",
		Columns: []Column{
			{Name: "k", Type: TInt, NotNull: true},
			{Name: "n", Type: TInt},
			{Name: "f", Type: TFloat},
			{Name: "s", Type: TText},
			{Name: "b", Type: TBool},
			{Name: "d", Type: TDate},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	null := Value{}
	rows := []Row{
		{NewInt(1), NewInt(10), NewFloat(1.5), NewString("alpha"), NewBool(true), NewDate(100)},
		{NewInt(2), null, NewFloat(-2.5), NewString("beta"), NewBool(false), null},
		{NewInt(3), NewInt(30), null, null, null, NewDate(300)},
		{NewInt(4), NewInt(10), NewFloat(4.0), NewString("alpha"), NewBool(true), NewDate(100)},
		{NewInt(5), NewInt(-7), NewFloat(1.5), NewString("gamma"), null, null},
	}
	for _, r := range rows {
		if err := db.Insert("TTyped", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// shapeQueries covers every operator shape of the executor: pushdown
// comparisons in both literal positions, LIKE/IN/IS NULL, NOT, hash joins
// with residuals, left and natural joins, DISTINCT, aggregates with and
// without HAVING, projection, ORDER BY and LIMIT, unions, derived tables,
// and NULL-heavy typed columns.
var shapeQueries = []string{
	"SELECT * FROM TProduct WHERE size = 'big'",
	"SELECT product FROM TProduct WHERE size <> 'small' ORDER BY product",
	"SELECT * FROM TEmployee WHERE id > 1 AND branch = 'B1'",
	"SELECT * FROM TEmployee WHERE 2 <= id OR name LIKE 'J%'",
	"SELECT name FROM TEmployee WHERE branch IN ('B1', 'B9') ORDER BY name",
	"SELECT name FROM TEmployee WHERE branch NOT IN ('B1')",
	"SELECT name FROM TEmployee WHERE NOT (id = 1) ORDER BY name",
	"SELECT e.name, p.size FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id JOIN TProduct p ON s.product = p.product ORDER BY e.name, p.size",
	"SELECT e.name FROM TEmployee e, TSellsProduct s, TProduct p WHERE e.id = s.id AND s.product = p.product AND p.size = 'small'",
	"SELECT e.name, s.product FROM TEmployee e LEFT JOIN TSellsProduct s ON e.id = s.id ORDER BY e.name, s.product",
	"SELECT id, task FROM TEmployee NATURAL JOIN TAssignment ORDER BY id, task",
	"SELECT DISTINCT size FROM TProduct ORDER BY size",
	"SELECT branch FROM TEmployee UNION SELECT branch FROM TAssignment",
	"SELECT branch FROM TEmployee UNION ALL SELECT branch FROM TAssignment",
	"SELECT COUNT(*) FROM TSellsProduct",
	"SELECT branch, COUNT(*) AS n FROM TEmployee GROUP BY branch ORDER BY branch",
	"SELECT branch, COUNT(*) FROM TEmployee GROUP BY branch HAVING COUNT(*) > 1",
	"SELECT MIN(id), MAX(id), SUM(id), AVG(id) FROM TEmployee",
	"SELECT COUNT(DISTINCT size) FROM TProduct",
	"SELECT id FROM TEmployee ORDER BY id DESC LIMIT 2",
	"SELECT v.name FROM (SELECT name, id FROM TEmployee WHERE branch = 'B1') AS v WHERE v.id = 2",
	"SELECT k FROM TTyped WHERE n = 10 ORDER BY k",
	"SELECT k FROM TTyped WHERE n IS NULL",
	"SELECT k FROM TTyped WHERE n IS NOT NULL ORDER BY k",
	"SELECT k FROM TTyped WHERE f > 1.0 AND b = TRUE ORDER BY k",
	"SELECT k FROM TTyped WHERE s IN ('alpha', 'gamma') ORDER BY k",
	"SELECT k FROM TTyped WHERE s LIKE 'a%' ORDER BY k",
	"SELECT k FROM TTyped WHERE d >= 100 OR f < 0 ORDER BY k",
	"SELECT DISTINCT n FROM TTyped ORDER BY n",
	"SELECT s, COUNT(*), SUM(n), MIN(f), MAX(d) FROM TTyped GROUP BY s ORDER BY s",
	"SELECT a.k, b.k FROM TTyped a JOIN TTyped b ON a.s = b.s WHERE a.k < b.k ORDER BY a.k, b.k",
	"SELECT name FROM TEmployee ORDER BY branch DESC, name",
	// Narrowed joins: an unqualified name two FROM items share resolves to
	// the first; ORDER BY reads a dropped column of the third item; a
	// residual reads columns no later step does; ORDER BY an alias; a
	// star over a join; grouping on an unselected join column; a LEFT
	// JOIN's padded columns projected; a star through nested JOINs.
	"SELECT name, branch, task FROM TEmployee e, TSellsProduct s, TAssignment a WHERE e.id = s.id AND s.product = 'p3' AND a.task = 'task2' ORDER BY task, branch",
	"SELECT e.name FROM TEmployee e, TSellsProduct s, TProduct p WHERE e.id = s.id AND s.product = p.product ORDER BY p.size DESC, p.product, e.name",
	"SELECT a.k, c.k FROM TTyped a, TTyped b, TTyped c WHERE a.s = b.s AND a.k <> b.k AND b.d = c.d ORDER BY a.k, c.k",
	"SELECT e.name AS who, s.product AS what FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id ORDER BY what DESC, who",
	"SELECT e.*, p.size FROM TSellsProduct s, TEmployee e, TProduct p WHERE e.id = s.id AND s.product = p.product ORDER BY e.id, p.size",
	"SELECT COUNT(*) AS n, MIN(s.product) FROM TEmployee e, TSellsProduct s WHERE e.id = s.id GROUP BY e.name HAVING MAX(s.product) < 'p3'",
	"SELECT e.name, v.product, v.size FROM TEmployee e LEFT JOIN (SELECT s.id, p.product, p.size FROM TSellsProduct s JOIN TProduct p ON s.product = p.product WHERE p.size = 'small') AS v ON e.id = v.id ORDER BY e.name",
	"SELECT s.*, e.name FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id JOIN TProduct p ON s.product = p.product WHERE p.size = 'big' ORDER BY s.id, s.product",
}

// TestShapesGolden runs every shape query at both profiles and compares
// the order-sensitive rendering with testdata/shapes.golden. Regenerate
// with go test ./internal/sqldb -run TestShapesGolden -update.
func TestShapesGolden(t *testing.T) {
	var sb strings.Builder
	for _, profile := range []Profile{ProfileHashJoin, ProfileSortMerge} {
		db := nullDB(t)
		db.Profile = profile
		for _, sql := range shapeQueries {
			res, err := db.ExecSelectOpts(MustParse(sql), ExecOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("[%v] %q: %v", profile, sql, err)
			}
			sb.WriteString("-- " + profile.String() + ": " + sql + "\n")
			sb.WriteString(renderRes(res) + "\n\n")
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "shapes.golden")
	if *updateShapes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gotBlocks, wantBlocks := strings.Split(got, "\n\n"), strings.Split(string(want), "\n\n")
		for i := range min(len(gotBlocks), len(wantBlocks)) {
			if gotBlocks[i] != wantBlocks[i] {
				t.Fatalf("result diverges from %s:\ngot:\n%s\nwant:\n%s", path, gotBlocks[i], wantBlocks[i])
			}
		}
		t.Fatalf("result diverges from %s: %d blocks, want %d", path, len(gotBlocks), len(wantBlocks))
	}
}
