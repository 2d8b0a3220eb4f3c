package sqldb

import (
	"strings"
	"testing"
)

// profile runs the statement through ProfileSelect and cross-checks the
// result against the uninstrumented ExecSelect path.
func profile(t *testing.T, db *Database, sql string) (*Result, *OpProfile) {
	t.Helper()
	s := MustParse(sql)
	res, prof, err := db.ProfileSelect(s)
	if err != nil {
		t.Fatalf("ProfileSelect %q: %v", sql, err)
	}
	plain, err := db.ExecSelect(MustParse(sql))
	if err != nil {
		t.Fatalf("ExecSelect %q: %v", sql, err)
	}
	if len(res.Rows) != len(plain.Rows) {
		t.Fatalf("profiled run returned %d rows, plain %d", len(res.Rows), len(plain.Rows))
	}
	return res, prof
}

func TestProfileJoinQuery(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	res, prof := profile(t, db,
		"SELECT e.name, p.size FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id JOIN TProduct p ON s.product = p.product")

	if prof.Op != "query" || prof.Rows != len(res.Rows) {
		t.Fatalf("root = %s rows=%d, want query rows=%d", prof.Op, prof.Rows, len(res.Rows))
	}
	// Three base scans with the true table cardinalities.
	scans := map[string]int{"TEmployee": 3, "TSellsProduct": 4, "TProduct": 4}
	sel := prof.Find("select")
	if sel == nil {
		t.Fatalf("no select node:\n%s", prof.Render())
	}
	seen := 0
	var walk func(*OpProfile)
	var joins []*OpProfile
	walk = func(p *OpProfile) {
		if p.Op == "scan" {
			if want, ok := scans[p.Detail]; !ok || p.Rows != want {
				t.Errorf("scan %s rows=%d, want %d", p.Detail, p.Rows, scans[p.Detail])
			}
			seen++
		}
		if strings.Contains(p.Op, "join") {
			joins = append(joins, p)
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(prof)
	if seen != 3 {
		t.Fatalf("saw %d scans, want 3:\n%s", seen, prof.Render())
	}
	if len(joins) != 2 {
		t.Fatalf("saw %d joins, want 2:\n%s", len(joins), prof.Render())
	}
	for _, j := range joins {
		if j.Op != "hash join" {
			t.Errorf("join algo = %s, want hash join", j.Op)
		}
		if j.LeftRows < 0 || j.RightRows < 0 {
			t.Errorf("join missing input cardinalities: %+v", j)
		}
		// Hash join builds on the smaller side and probes with the other.
		small, big := j.LeftRows, j.RightRows
		if small > big {
			small, big = big, small
		}
		if j.BuildRows != small || j.Probes != big {
			t.Errorf("join build=%d probes=%d, want build=%d probes=%d", j.BuildRows, j.Probes, small, big)
		}
	}
	// The final join's output feeds the project untouched.
	last := joins[len(joins)-1]
	proj := prof.Find("project")
	if proj == nil || proj.Rows != last.Rows {
		t.Fatalf("project rows inconsistent with final join:\n%s", prof.Render())
	}
}

func TestProfileMergeJoin(t *testing.T) {
	db := testDB(t, ProfileSortMerge)
	_, prof := profile(t, db,
		"SELECT e.name FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id")
	j := prof.Find("merge join")
	if j == nil {
		t.Fatalf("no merge join node:\n%s", prof.Render())
	}
	if j.BuildRows != j.LeftRows+j.RightRows {
		t.Fatalf("merge join build=%d, want %d (both sides sorted)", j.BuildRows, j.LeftRows+j.RightRows)
	}
}

func TestProfileFilterAndLimit(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	_, prof := profile(t, db,
		"SELECT name FROM TEmployee WHERE branch = 'B1' ORDER BY name LIMIT 1")
	f := prof.Find("filter")
	if f == nil {
		t.Fatalf("no filter node:\n%s", prof.Render())
	}
	if f.RowsIn != 3 || f.Rows != 2 {
		t.Fatalf("filter %d → %d, want 3 → 2", f.RowsIn, f.Rows)
	}
	l := prof.Find("limit")
	if l == nil || l.RowsIn != 2 || l.Rows != 1 {
		t.Fatalf("limit node wrong:\n%s", prof.Render())
	}
	if s := prof.Find("sort"); s == nil || s.Rows != 2 {
		t.Fatalf("sort node wrong:\n%s", prof.Render())
	}
}

func TestProfileUnionRowsSum(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	res, prof := profile(t, db,
		"SELECT id FROM TEmployee UNION ALL SELECT id FROM TSellsProduct")
	u := prof.Find("union all")
	if u == nil {
		t.Fatalf("no union node:\n%s", prof.Render())
	}
	var sum int
	for _, c := range u.Children {
		if c.Op == "arm" {
			sum += c.Rows
		}
	}
	if sum != u.Rows || u.Rows != len(res.Rows) {
		t.Fatalf("union rows=%d, arm sum=%d, result=%d — must agree:\n%s",
			u.Rows, sum, len(res.Rows), prof.Render())
	}

	// UNION (distinct) reports the pre-dedup concatenation on the union
	// node and the reduction on a distinct sibling.
	_, prof2 := profile(t, db, "SELECT id FROM TEmployee UNION SELECT id FROM TSellsProduct")
	u2 := prof2.Find("union")
	d2 := prof2.Find("distinct")
	if u2 == nil || d2 == nil {
		t.Fatalf("union/distinct missing:\n%s", prof2.Render())
	}
	if d2.RowsIn != u2.Rows {
		t.Fatalf("distinct input %d != union output %d", d2.RowsIn, u2.Rows)
	}
}

func TestProfileSubqueryCached(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	_, prof := profile(t, db,
		"SELECT a.id FROM (SELECT id FROM TEmployee) a JOIN (SELECT id FROM TEmployee) b ON a.id = b.id")
	var fresh, cached int
	var walk func(*OpProfile)
	walk = func(p *OpProfile) {
		if p.Op == "subquery" {
			if strings.Contains(p.Detail, "cached") {
				cached++
			} else {
				fresh++
			}
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(prof)
	if fresh != 1 || cached != 1 {
		t.Fatalf("subquery nodes fresh=%d cached=%d, want 1/1:\n%s", fresh, cached, prof.Render())
	}
}

func TestProfileRender(t *testing.T) {
	db := testDB(t, ProfileHashJoin)
	_, prof := profile(t, db,
		"SELECT e.name FROM TEmployee e JOIN TSellsProduct s ON e.id = s.id WHERE e.branch = 'B1'")
	out := prof.Render()
	for _, want := range []string{"query", "└─", "scan TEmployee", "hash join", "build=", "probes=", "rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if prof.TotalOps() < 4 {
		t.Fatalf("TotalOps = %d, want >= 4", prof.TotalOps())
	}
}

func TestProfileDisabledIsNilSafe(t *testing.T) {
	// The plain ExecSelect path runs the same instrumented code with a nil
	// profile node; every hook must no-op.
	var p *OpProfile
	p.SetRows(1)
	p.SetInOut(1, 2)
	p.SetJoin(1, 2, 3, 4, 5)
	p.SetDetail("x")
	if p.TotalOps() != 0 || p.TotalRows() != 0 || p.Find("scan") != nil || p.Render() != "" {
		t.Fatal("nil OpProfile must be inert")
	}
	ctx := &execCtx{}
	if n := ctx.addOp("scan", "t"); n != nil {
		t.Fatal("addOp without profiling must return nil")
	}
	n, restore := ctx.pushOp("select", "")
	restore()
	if n != nil {
		t.Fatal("pushOp without profiling must return nil")
	}
}
