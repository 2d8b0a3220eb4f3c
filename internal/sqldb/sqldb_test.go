package sqldb

import (
	"strings"
	"testing"
	"testing/quick"
)

// testDB builds the running example of the paper (Sect. 4, Example 4.1):
// TEmployee, TAssignment, TSellsProduct, TProduct.
func testDB(t *testing.T, profile Profile) *Database {
	t.Helper()
	db := NewDatabase("example")
	db.Profile = profile
	mustCreate := func(def *TableDef) {
		t.Helper()
		if _, err := db.CreateTable(def); err != nil {
			t.Fatalf("create %s: %v", def.Name, err)
		}
	}
	mustCreate(&TableDef{
		Name: "TEmployee",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "name", Type: TText},
			{Name: "branch", Type: TText},
		},
		PrimaryKey: []int{0},
	})
	mustCreate(&TableDef{
		Name: "TProduct",
		Columns: []Column{
			{Name: "product", Type: TText, NotNull: true},
			{Name: "size", Type: TText},
		},
		PrimaryKey: []int{0},
	})
	mustCreate(&TableDef{
		Name: "TAssignment",
		Columns: []Column{
			{Name: "branch", Type: TText, NotNull: true},
			{Name: "task", Type: TText, NotNull: true},
		},
		PrimaryKey: []int{0, 1},
	})
	mustCreate(&TableDef{
		Name: "TSellsProduct",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "product", Type: TText, NotNull: true},
		},
		PrimaryKey: []int{0, 1},
		ForeignKeys: []ForeignKey{
			{Columns: []int{0}, RefTable: "TEmployee", RefColumns: []int{0}},
			{Columns: []int{1}, RefTable: "TProduct", RefColumns: []int{0}},
		},
	})
	ins := func(table string, rows ...Row) {
		t.Helper()
		for _, r := range rows {
			if err := db.Insert(table, r); err != nil {
				t.Fatalf("insert into %s: %v", table, err)
			}
		}
	}
	ins("TEmployee",
		Row{NewInt(1), NewString("John"), NewString("B1")},
		Row{NewInt(2), NewString("Lisa"), NewString("B1")},
		Row{NewInt(3), NewString("Mara"), NewString("B2")},
	)
	ins("TProduct",
		Row{NewString("p1"), NewString("big")},
		Row{NewString("p2"), NewString("big")},
		Row{NewString("p3"), NewString("small")},
		Row{NewString("p4"), NewString("big")},
	)
	ins("TAssignment",
		Row{NewString("B1"), NewString("task1")},
		Row{NewString("B1"), NewString("task2")},
		Row{NewString("B2"), NewString("task1")},
		Row{NewString("B2"), NewString("task2")},
	)
	ins("TSellsProduct",
		Row{NewInt(1), NewString("p1")},
		Row{NewInt(1), NewString("p2")},
		Row{NewInt(2), NewString("p2")},
		Row{NewInt(2), NewString("p3")},
	)
	return db
}

func queryStrings(t *testing.T, db *Database, sql string) []string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func TestSimpleSelect(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db, "SELECT name FROM TEmployee WHERE branch = 'B1' ORDER BY name")
	want := []string{"John", "Lisa"}
	if len(rows) != 2 || rows[0] != want[0] || rows[1] != want[1] {
		t.Fatalf("got %v, want %v", rows, want)
	}
}

func TestProjectionStar(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	res, err := db.Query("SELECT * FROM TEmployee")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || len(res.Rows) != 3 {
		t.Fatalf("got %d cols %d rows", len(res.Columns), len(res.Rows))
	}
	if res.Columns[0] != "id" || res.Columns[2] != "branch" {
		t.Fatalf("bad columns %v", res.Columns)
	}
}

func TestJoinBothProfiles(t *testing.T) {
	for _, prof := range []Profile{ProfileHashJoin, ProfileSortMerge} {
		db := testDB(t, prof)
		rows := queryStrings(t, db,
			"SELECT e.name, p.size FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id JOIN TProduct p ON s.product = p.product ORDER BY e.name, p.size")
		if len(rows) != 4 {
			t.Fatalf("%v: got %d rows: %v", prof, len(rows), rows)
		}
		if rows[0] != "John|big" {
			t.Fatalf("%v: first row %q", prof, rows[0])
		}
	}
}

func TestCommaJoinWithWhere(t *testing.T) {
	// The OBDA unfolder emits this shape; the planner must recognize the
	// equi predicates rather than building a cross product.
	for _, prof := range []Profile{ProfileHashJoin, ProfileSortMerge} {
		db := testDB(t, prof)
		rows := queryStrings(t, db,
			"SELECT e.name FROM TEmployee e, TSellsProduct s, TProduct p WHERE e.id = s.id AND s.product = p.product AND p.size = 'small'")
		if len(rows) != 1 || rows[0] != "Lisa" {
			t.Fatalf("%v: got %v", prof, rows)
		}
	}
}

func TestNaturalJoin(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	// TEmployee NATURAL JOIN TAssignment joins on branch.
	rows := queryStrings(t, db,
		"SELECT id, task FROM TEmployee NATURAL JOIN TAssignment ORDER BY id, task")
	if len(rows) != 6 {
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	if rows[0] != "1|task1" || rows[5] != "3|task2" {
		t.Fatalf("rows %v", rows)
	}
}

func TestLeftJoin(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db,
		"SELECT e.name, s.product FROM TEmployee e LEFT JOIN TSellsProduct s ON e.id = s.id ORDER BY e.name, s.product")
	// Mara sells nothing -> padded with NULL.
	if len(rows) != 5 {
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	found := false
	for _, r := range rows {
		if r == "Mara|NULL" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no NULL-padded row in %v", rows)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db, "SELECT COUNT(*) FROM TSellsProduct")
	if rows[0] != "4" {
		t.Fatalf("count got %v", rows)
	}
	rows = queryStrings(t, db,
		"SELECT branch, COUNT(*) AS n FROM TEmployee GROUP BY branch ORDER BY branch")
	if len(rows) != 2 || rows[0] != "B1|2" || rows[1] != "B2|1" {
		t.Fatalf("group got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT COUNT(DISTINCT size) FROM TProduct")
	if rows[0] != "2" {
		t.Fatalf("count distinct got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT MIN(id), MAX(id), SUM(id), AVG(id) FROM TEmployee")
	if rows[0] != "1|3|6|2" {
		t.Fatalf("min/max/sum/avg got %v", rows)
	}
}

func TestHaving(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db,
		"SELECT branch, COUNT(*) FROM TEmployee GROUP BY branch HAVING COUNT(*) > 1")
	if len(rows) != 1 || rows[0] != "B1|2" {
		t.Fatalf("having got %v", rows)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db, "SELECT COUNT(*) FROM TEmployee WHERE id > 100")
	if len(rows) != 1 || rows[0] != "0" {
		t.Fatalf("got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT MAX(id) FROM TEmployee WHERE id > 100")
	if len(rows) != 1 || rows[0] != "NULL" {
		t.Fatalf("got %v", rows)
	}
}

func TestUnionAndUnionAll(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db,
		"SELECT branch FROM TEmployee UNION SELECT branch FROM TAssignment")
	if len(rows) != 2 {
		t.Fatalf("union got %v", rows)
	}
	rows = queryStrings(t, db,
		"SELECT branch FROM TEmployee UNION ALL SELECT branch FROM TAssignment")
	if len(rows) != 7 {
		t.Fatalf("union all got %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db, "SELECT DISTINCT size FROM TProduct ORDER BY size")
	if len(rows) != 2 || rows[0] != "big" || rows[1] != "small" {
		t.Fatalf("distinct got %v", rows)
	}
}

func TestLimitOffset(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db, "SELECT id FROM TEmployee ORDER BY id LIMIT 1 OFFSET 1")
	if len(rows) != 1 || rows[0] != "2" {
		t.Fatalf("limit/offset got %v", rows)
	}
}

func TestLikeInBetween(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db, "SELECT name FROM TEmployee WHERE name LIKE 'J%'")
	if len(rows) != 1 || rows[0] != "John" {
		t.Fatalf("like got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT name FROM TEmployee WHERE id IN (1, 3) ORDER BY name")
	if len(rows) != 2 || rows[0] != "John" || rows[1] != "Mara" {
		t.Fatalf("in got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT name FROM TEmployee WHERE id BETWEEN 2 AND 3 ORDER BY id")
	if len(rows) != 2 || rows[0] != "Lisa" {
		t.Fatalf("between got %v", rows)
	}
}

func TestSubquery(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db,
		"SELECT v.name FROM (SELECT name, id FROM TEmployee WHERE branch = 'B1') AS v WHERE v.id = 2")
	if len(rows) != 1 || rows[0] != "Lisa" {
		t.Fatalf("subquery got %v", rows)
	}
}

func TestIsNull(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	if err := db.Insert("TEmployee", Row{NewInt(9), Null, NewString("B3")}); err != nil {
		t.Fatal(err)
	}
	rows := queryStrings(t, db, "SELECT id FROM TEmployee WHERE name IS NULL")
	if len(rows) != 1 || rows[0] != "9" {
		t.Fatalf("is null got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT COUNT(name) FROM TEmployee")
	if rows[0] != "3" {
		t.Fatalf("COUNT skips NULL: got %v", rows)
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	err := db.Insert("TEmployee", Row{NewInt(1), NewString("Dup"), NewString("B9")})
	if err == nil {
		t.Fatal("expected duplicate key error")
	}
	if _, ok := err.(*DuplicateKeyError); !ok {
		t.Fatalf("wrong error type %T", err)
	}
}

func TestForeignKeyViolation(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	err := db.Insert("TSellsProduct", Row{NewInt(77), NewString("p1")})
	if err == nil {
		t.Fatal("expected FK error")
	}
	if _, ok := err.(*ForeignKeyError); !ok {
		t.Fatalf("wrong error type %T", err)
	}
	if errs := db.CheckIntegrity(); len(errs) != 0 {
		t.Fatalf("integrity check reports %v", errs)
	}
}

func TestTypeMismatch(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	if err := db.Insert("TEmployee", Row{NewString("x"), Null, Null}); err == nil {
		t.Fatal("expected type error")
	}
}

func TestStatsDuplicateRatio(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	st := db.Table("TAssignment").Stats()
	// branch column: 4 values, 2 distinct -> ratio 1/2 (the paper's example).
	if got := st.DuplicateRatio(0); got != 0.5 {
		t.Fatalf("duplicate ratio = %v, want 0.5", got)
	}
	if got := st.DuplicateRatio(1); got != 0.5 {
		t.Fatalf("task duplicate ratio = %v, want 0.5", got)
	}
	if st.Min[0].String() != "B1" || st.Max[0].String() != "B2" {
		t.Fatalf("min/max wrong: %v %v", st.Min[0], st.Max[0])
	}
}

func TestProfilesAgree(t *testing.T) {
	// Property: both profiles must return the same multiset of rows.
	queries := []string{
		"SELECT e.name, p.size FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id JOIN TProduct p ON s.product = p.product",
		"SELECT e.name FROM TEmployee e, TSellsProduct s WHERE e.id = s.id",
		"SELECT branch, COUNT(*) FROM TEmployee GROUP BY branch",
		"SELECT id, task FROM TEmployee NATURAL JOIN TAssignment",
		"SELECT e.name, s.product FROM TEmployee e LEFT JOIN TSellsProduct s ON e.id = s.id",
	}
	h := testDB(t, ProfileHashJoin)
	m := testDB(t, ProfileSortMerge)
	for _, q := range queries {
		rh, err := h.Query(q)
		if err != nil {
			t.Fatalf("hash %q: %v", q, err)
		}
		rm, err := m.Query(q)
		if err != nil {
			t.Fatalf("merge %q: %v", q, err)
		}
		fh := relationFingerprint(&relation{rows: rh.Rows})
		fm := relationFingerprint(&relation{rows: rm.Rows})
		if fh != fm {
			t.Fatalf("profiles disagree on %q:\n%s\nvs\n%s", q, fh, fm)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	f := func(days int32) bool {
		d := int64(days)
		y, m, dd := civilFromDays(d)
		return daysFromCivil(y, m, dd) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	v, err := ParseDate("2008-06-15")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "2008-06-15" {
		t.Fatalf("date round trip got %s", v)
	}
}

func TestCompareTotalOrderOnInts(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := Compare(NewInt(a), NewInt(b))
		c2, err2 := Compare(NewInt(b), NewInt(a))
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2 && ((a == b) == (c1 == 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNumericCrossKindCompare(t *testing.T) {
	c, err := Compare(NewInt(2), NewFloat(2.0))
	if err != nil || c != 0 {
		t.Fatalf("2 = 2.0 expected, got %d %v", c, err)
	}
	if NewInt(2).Key() != NewFloat(2.0).Key() {
		t.Fatal("keys of equal numerics must agree")
	}
}

func TestLikeMatchProperties(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "h_llo", true},
		{"hello", "H%", true}, // case-insensitive like MySQL
		{"hello", "x%", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%b%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestGeometryValidity(t *testing.T) {
	square := &Geometry{Points: []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 0}}}
	if !square.Valid() {
		t.Fatal("square should be valid")
	}
	bowtie := &Geometry{Points: []Point{{0, 0}, {1, 1}, {1, 0}, {0, 1}, {0, 0}}}
	if bowtie.Valid() {
		t.Fatal("self-intersecting polygon should be invalid")
	}
	open := &Geometry{Points: []Point{{0, 0}, {1, 0}, {1, 1}}}
	if open.Valid() {
		t.Fatal("open ring should be invalid")
	}
	minX, minY, maxX, maxY := square.BoundingBox()
	if minX != 0 || minY != 0 || maxX != 1 || maxY != 1 {
		t.Fatalf("bbox got %v %v %v %v", minX, minY, maxX, maxY)
	}
}

func TestGeometryColumnRejectsInvalid(t *testing.T) {
	db := NewDatabase("g")
	if _, err := db.CreateTable(&TableDef{
		Name:    "shapes",
		Columns: []Column{{Name: "area", Type: TGeometry}},
	}); err != nil {
		t.Fatal(err)
	}
	bowtie := &Geometry{Points: []Point{{0, 0}, {1, 1}, {1, 0}, {0, 1}, {0, 0}}}
	if err := db.Insert("shapes", Row{NewGeometry(bowtie)}); err == nil {
		t.Fatal("invalid polygon must be rejected")
	}
	square := &Geometry{Points: []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 0}}}
	if err := db.Insert("shapes", Row{NewGeometry(square)}); err != nil {
		t.Fatal(err)
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT x",
		"SELECT 'unterminated FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	// Statements must survive a parse -> String -> parse cycle.
	queries := []string{
		"SELECT id, name FROM TEmployee WHERE branch = 'B1' ORDER BY name LIMIT 2",
		"SELECT e.name FROM TEmployee AS e JOIN TSellsProduct AS s ON e.id = s.id",
		"SELECT branch, COUNT(*) AS n FROM TEmployee GROUP BY branch HAVING COUNT(*) > 1",
		"SELECT branch FROM TEmployee UNION SELECT branch FROM TAssignment",
		"SELECT DISTINCT size FROM TProduct",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		s2, err := Parse(s1.String())
		if err != nil {
			t.Fatalf("reparse %q -> %q: %v", q, s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Fatalf("round trip mismatch:\n%s\n%s", s1, s2)
		}
	}
}

func TestSQLMetrics(t *testing.T) {
	s := MustParse("SELECT e.name FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id LEFT JOIN TProduct p ON s.product = p.product")
	m := s.Metrics()
	if m.Joins != 1 || m.LeftJoins != 1 {
		t.Fatalf("metrics %+v", m)
	}
	u := MustParse("SELECT id FROM TEmployee UNION ALL SELECT id FROM TEmployee UNION ALL SELECT id FROM TEmployee")
	if got := u.Metrics().Unions; got != 2 {
		t.Fatalf("unions = %d", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	rows := queryStrings(t, db, "SELECT UPPER(name), LENGTH(name) FROM TEmployee WHERE id = 1")
	if rows[0] != "JOHN|4" {
		t.Fatalf("got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT COALESCE(NULL, 'x')")
	if rows[0] != "x" {
		t.Fatalf("coalesce got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT SUBSTR('hello', 2, 3)")
	if rows[0] != "ell" {
		t.Fatalf("substr got %v", rows)
	}
	rows = queryStrings(t, db, "SELECT 'a' || 'b'")
	if rows[0] != "ab" {
		t.Fatalf("concat got %v", rows)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	if err := db.Insert("TEmployee", Row{NewInt(10), Null, NewString("B3")}); err != nil {
		t.Fatal(err)
	}
	// name = 'John' is UNKNOWN for the NULL row; it must not be returned,
	// and neither by the negation.
	pos := queryStrings(t, db, "SELECT id FROM TEmployee WHERE name = 'Zed'")
	neg := queryStrings(t, db, "SELECT id FROM TEmployee WHERE NOT (name = 'Zed')")
	if len(pos)+len(neg) != 3 { // 4 employees, 1 has NULL name
		t.Fatalf("3VL violated: pos=%v neg=%v", pos, neg)
	}
}

// TestExplainSelect checks that the EXPLAIN ANALYZE operator tree records
// the planner's decisions: the pushed-down filter and the join algorithm
// each database profile picks.
func TestExplainSelect(t *testing.T) {
	stmt := MustParse("SELECT e.name FROM TEmployee e, TSellsProduct s WHERE e.id = s.id AND e.branch = 'B1'")
	res, prof, err := testDB(t, ProfileHashJoin).ProfileSelect(stmt)
	if err != nil {
		t.Fatal(err)
	}
	out := prof.Render()
	if f := prof.Find("filter"); f == nil || !strings.HasPrefix(f.Detail, "pushdown ") || f.Rows > f.RowsIn {
		t.Fatalf("no pushdown filter recorded:\n%s", out)
	}
	if prof.Find("hash join") == nil {
		t.Fatalf("no join algorithm recorded:\n%s", out)
	}
	if prof.Rows != len(res.Rows) {
		t.Fatalf("root reports %d rows, result has %d:\n%s", prof.Rows, len(res.Rows), out)
	}
	// sort-merge profile picks the other algorithm
	_, prof, err = testDB(t, ProfileSortMerge).ProfileSelect(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Find("merge join") == nil {
		t.Fatalf("sort-merge profile did not merge join:\n%s", prof.Render())
	}
}

func TestSubsume(t *testing.T) {
	set := func(group string, conjs ...string) ConjunctSet {
		m := map[string]bool{}
		for _, c := range conjs {
			m[c] = true
		}
		return ConjunctSet{Group: group, Conjs: m}
	}
	got := Subsume([]ConjunctSet{
		set("t", "k = 1", "j = 2"), // superset of the next: dropped
		set("t", "k = 1"),          // survives
		set("t", "k = 1"),          // equal to an earlier survivor: dropped
		set("u", "k = 1", "j = 2"), // dropped by the later unrestricted u
		set("u"),                   // survives; cannot reach group t
	})
	want := []bool{false, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Subsume = %v, want %v", got, want)
		}
	}
}

// TestEnsureIndexHit checks that asking again for an existing secondary
// index, as every foreign-key check of Insert does, returns the same index
// and allocates nothing.
func TestEnsureIndexHit(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	tab := db.Table("TSellsProduct")
	idx := tab.EnsureIndex([]int{1})
	if got := tab.EnsureIndex([]int{1}); got != idx {
		t.Fatal("EnsureIndex built a second index over the same columns")
	}
	if other := tab.EnsureIndex([]int{0, 1}); other == idx {
		t.Fatal("EnsureIndex shares one index between different columns")
	}
	cols := []int{1}
	if allocs := testing.AllocsPerRun(100, func() { tab.EnsureIndex(cols) }); allocs != 0 {
		t.Errorf("EnsureIndex hit allocates %.0f times, want 0", allocs)
	}
}
