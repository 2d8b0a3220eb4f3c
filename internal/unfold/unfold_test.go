package unfold

import (
	"strings"
	"testing"

	"npdbench/internal/analyze"
	"npdbench/internal/r2rml"
	"npdbench/internal/rdf"
	"npdbench/internal/rewrite"
	"npdbench/internal/sqldb"
)

const ns = "http://t/"

func testMapping() *r2rml.Mapping {
	return r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://t/

[MappingDeclaration]
mappingId emp
target    t:emp/{id} a t:Employee ; t:name {name} .
source    SELECT id, name FROM emp

mappingId sells
target    t:emp/{id} t:sells t:prod/{p} .
source    SELECT id, p FROM sells

mappingId prods
target    t:prod/{p} a t:Product .
source    SELECT p FROM prods
`)
}

func vt(v string) rewrite.Term   { return rewrite.Term{Var: v} }
func ct(t rdf.Term) rewrite.Term { return rewrite.Term{Const: t} }

func classAtom(class string, s rewrite.Term) rewrite.Atom {
	return rewrite.Atom{Kind: rewrite.ClassAtom, Pred: ns + class, S: s}
}

func propAtom(p string, s, o rewrite.Term) rewrite.Atom {
	return rewrite.Atom{Kind: rewrite.ObjPropAtom, Pred: ns + p, S: s, O: o}
}

func dataAtom(p string, s, o rewrite.Term) rewrite.Atom {
	return rewrite.Atom{Kind: rewrite.DataPropAtom, Pred: ns + p, S: s, O: o}
}

func TestUnfoldSingleClassAtom(t *testing.T) {
	cq := &rewrite.CQ{Atoms: []rewrite.Atom{classAtom("Employee", vt("x"))}, Answer: []string{"x"}}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.Arms != 1 || un.Stmt == nil {
		t.Fatalf("arms = %d", un.Arms)
	}
	sql := un.Stmt.String()
	if !strings.Contains(sql, "emp") || !strings.Contains(sql, "http://t/emp/") {
		t.Fatalf("SQL: %s", sql)
	}
	// three output columns per answer variable
	if got := len(un.Stmt.Items); got != 3 {
		t.Fatalf("items = %d, want 3", got)
	}
}

func TestUnfoldJoinSharedVariable(t *testing.T) {
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", vt("x"), vt("y")),
			classAtom("Product", vt("y")),
		},
		Answer: []string{"x", "y"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.Arms != 1 {
		t.Fatalf("arms = %d", un.Arms)
	}
	sql := un.Stmt.String()
	// templates share the skeleton prod/{..}: join on columns, not concat
	if !strings.Contains(sql, "t1.p = t2.p") && !strings.Contains(sql, "t2.p = t1.p") {
		t.Fatalf("expected column-level join: %s", sql)
	}
}

func TestUnfoldTemplateMismatchPrunes(t *testing.T) {
	// x sells y, y sells z: y must be both a product IRI and an employee
	// IRI — impossible.
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", vt("x"), vt("y")),
			propAtom("sells", vt("y"), vt("z")),
		},
		Answer: []string{"x", "z"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.Arms != 0 {
		t.Fatalf("arms = %d, want 0 (template mismatch)", un.Arms)
	}
	if un.PrunedArms == 0 {
		t.Fatal("pruning not recorded")
	}
	if un.Stmt != nil {
		t.Fatal("provably empty query must have nil statement")
	}
}

func TestUnfoldConstantUnification(t *testing.T) {
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", ct(rdf.NewIRI(ns+"emp/7")), vt("y")),
		},
		Answer: []string{"y"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sql := un.Stmt.String()
	if !strings.Contains(sql, "= 7") {
		t.Fatalf("constant must become a column condition: %s", sql)
	}
}

func TestUnfoldConstantMismatchPrunes(t *testing.T) {
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", ct(rdf.NewIRI("http://other/emp/7")), vt("y")),
		},
		Answer: []string{"y"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.Arms != 0 {
		t.Fatalf("arms = %d, want 0", un.Arms)
	}
}

func TestUnfoldSelfJoinElimination(t *testing.T) {
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			classAtom("Employee", vt("x")),
			dataAtom("name", vt("x"), vt("n")),
		},
		Answer: []string{"x", "n"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.SelfJoinsEliminated != 1 {
		t.Fatalf("self joins eliminated = %d, want 1", un.SelfJoinsEliminated)
	}
	if strings.Contains(un.Stmt.String(), "t2") {
		t.Fatalf("same-source atoms must share one alias: %s", un.Stmt)
	}
}

func TestUnfoldNotNullGuards(t *testing.T) {
	cq := &rewrite.CQ{
		Atoms:  []rewrite.Atom{dataAtom("name", vt("x"), vt("n"))},
		Answer: []string{"x", "n"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sql := un.Stmt.String()
	if !strings.Contains(sql, "IS NOT NULL") {
		t.Fatalf("R2RML NULL suppression missing: %s", sql)
	}
}

func TestUnfoldPushFilter(t *testing.T) {
	cq := &rewrite.CQ{
		Atoms:  []rewrite.Atom{dataAtom("name", vt("x"), vt("n"))},
		Answer: []string{"x", "n"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), []PushFilter{
		{Var: "n", Op: ">=", Val: rdf.NewLiteral("M")},
	})
	if err != nil {
		t.Fatal(err)
	}
	sql := un.Stmt.String()
	if !strings.Contains(sql, ">= 'M'") {
		t.Fatalf("filter not pushed: %s", sql)
	}
}

func TestUnfoldUnionArms(t *testing.T) {
	// Employee(x) ∪ Product(x) — built as two CQs.
	u := rewrite.UCQ{
		{Atoms: []rewrite.Atom{classAtom("Employee", vt("x"))}, Answer: []string{"x"}},
		{Atoms: []rewrite.Atom{classAtom("Product", vt("x"))}, Answer: []string{"x"}},
	}
	un, err := Unfold(u, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.Arms != 2 {
		t.Fatalf("arms = %d, want 2", un.Arms)
	}
	if m := un.Metrics(); m.Unions != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestUnfoldEndToEndExecution(t *testing.T) {
	db := sqldb.NewDatabase("t")
	mustCreate := func(def *sqldb.TableDef) {
		if _, err := db.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate(&sqldb.TableDef{Name: "emp", Columns: []sqldb.Column{
		{Name: "id", Type: sqldb.TInt, NotNull: true}, {Name: "name", Type: sqldb.TText}},
		PrimaryKey: []int{0}})
	mustCreate(&sqldb.TableDef{Name: "sells", Columns: []sqldb.Column{
		{Name: "id", Type: sqldb.TInt, NotNull: true}, {Name: "p", Type: sqldb.TText, NotNull: true}},
		PrimaryKey: []int{0, 1}})
	mustCreate(&sqldb.TableDef{Name: "prods", Columns: []sqldb.Column{
		{Name: "p", Type: sqldb.TText, NotNull: true}}, PrimaryKey: []int{0}})
	for _, r := range []sqldb.Row{{sqldb.NewInt(1), sqldb.NewString("A")}, {sqldb.NewInt(2), sqldb.NewString("B")}} {
		if err := db.Insert("emp", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("prods", sqldb.Row{sqldb.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("sells", sqldb.Row{sqldb.NewInt(1), sqldb.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			propAtom("sells", vt("e"), vt("p")),
			classAtom("Product", vt("p")),
			dataAtom("name", vt("e"), vt("n")),
		},
		Answer: []string{"n", "p"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSelect(un.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "A" {
		t.Fatalf("row %v", res.Rows[0])
	}
	// the IRI column carries the full lexical form
	if res.Rows[0][3].S != ns+"prod/x" {
		t.Fatalf("IRI lexical form: %v", res.Rows[0][3])
	}
}

func TestUnfoldEmptyUCQ(t *testing.T) {
	if _, err := Unfold(nil, testMapping(), nil); err == nil {
		t.Fatal("empty UCQ must error")
	}
}

// ---- pruning edge cases and constraint-driven SQO ----

func TestUnfoldConstantSubjectWithPicks(t *testing.T) {
	// A constant in subject position must unify with the candidate's
	// subject template directly and stay consistent across the picks for
	// the other atoms sharing it.
	iri := ct(rdf.NewIRI(ns + "emp/7"))
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			classAtom("Employee", iri),
			dataAtom("name", iri, vt("n")),
		},
		Answer: []string{"n"},
	}
	un, err := Unfold(rewrite.UCQ{cq}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.Arms != 1 {
		t.Fatalf("arms = %d, want 1", un.Arms)
	}
	if sql := un.Stmt.String(); !strings.Contains(sql, "= 7") {
		t.Fatalf("constant subject must bind the template column: %s", sql)
	}

	// The same shape with a subject from a foreign template prunes every
	// combination before any SQL is built.
	bad := ct(rdf.NewIRI(ns + "prod/7"))
	cq2 := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			classAtom("Employee", bad),
			dataAtom("name", bad, vt("n")),
		},
		Answer: []string{"n"},
	}
	un2, err := Unfold(rewrite.UCQ{cq2}, testMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if un2.Arms != 0 || un2.PrunedArms == 0 {
		t.Fatalf("arms = %d, pruned = %d; want 0 arms and pruning recorded",
			un2.Arms, un2.PrunedArms)
	}
}

func TestMapsCompatibleSeparatorLiterals(t *testing.T) {
	// Templates that differ only in an interior separator are NOT provably
	// disjoint: {a}/{b} with a="x-y", b="z" collides with {a}-{b} at
	// a="x", b="y/z" is impossible, but a="x", b="y" vs a="x-y" … the
	// placeholders can absorb the separators, so pruning here would be
	// unsound.
	a := r2rml.IRIMap("http://t/w/{a}/{b}")
	b := r2rml.IRIMap("http://t/w/{a}-{b}")
	if !mapsCompatible(nil, nil, a, nil, b) {
		t.Error("interior separator difference must not prove disjointness")
	}
	// Literal prefixes that diverge DO prove disjointness.
	c := r2rml.IRIMap("http://t/x/{a}/{b}")
	if mapsCompatible(nil, nil, a, nil, c) {
		t.Error("diverging literal prefixes are disjoint")
	}
	// …and so do diverging literal suffixes.
	d := r2rml.IRIMap("http://t/w/{a}/{b}/tail")
	e := r2rml.IRIMap("http://t/w/{a}/{b}/liat")
	if mapsCompatible(nil, nil, d, nil, e) {
		t.Error("diverging literal suffixes are disjoint")
	}
}

// splitMapping mimics the NPD dataPropsSplit style: one narrow SELECT per
// data property over the same base table, plus a guarded variant.
func splitMapping() *r2rml.Mapping {
	return r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://t/

[MappingDeclaration]
mappingId emp-name
target    t:emp/{id} t:name {name} .
source    SELECT id, name FROM emp

mappingId emp-age
target    t:emp/{id} t:age {age} .
source    SELECT id, age FROM emp

mappingId emp-senior
target    t:emp/{id} t:senior {name} .
source    SELECT id, name FROM emp WHERE age > 30
`)
}

func splitConstraints(t *testing.T) *analyze.Constraints {
	t.Helper()
	db := sqldb.NewDatabase("t")
	if _, err := db.CreateTable(&sqldb.TableDef{Name: "emp", Columns: []sqldb.Column{
		{Name: "id", Type: sqldb.TInt, NotNull: true},
		{Name: "name", Type: sqldb.TText},
		{Name: "age", Type: sqldb.TInt},
	}, PrimaryKey: []int{0}}); err != nil {
		t.Fatal(err)
	}
	return analyze.DeriveConstraints(nil, nil, db)
}

func TestUnfoldWithConstraintsMergesSplitMappings(t *testing.T) {
	// name(x,n) ∧ age(x,a): the two picks come from different mappings, so
	// syntactic source-equality never merges them. The subject template
	// covers emp's primary key, so under the key constraint both table
	// instances denote the same row and collapse to one.
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			dataAtom("name", vt("x"), vt("n")),
			dataAtom("age", vt("x"), vt("a")),
		},
		Answer: []string{"x", "n", "a"},
	}
	base, err := Unfold(rewrite.UCQ{cq}, splitMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.SelfJoinsEliminated != 0 {
		t.Fatalf("baseline should not merge: %d", base.SelfJoinsEliminated)
	}

	opt, err := UnfoldWith(rewrite.UCQ{cq}, splitMapping(), nil, splitConstraints(t))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Arms != 1 || opt.SelfJoinsEliminated != 1 {
		t.Fatalf("arms = %d, selfJoins = %d; want 1 arm with 1 merged instance\n%s",
			opt.Arms, opt.SelfJoinsEliminated, opt.Stmt)
	}
	bm, om := base.Metrics(), opt.Metrics()
	if om.InnerQueries >= bm.InnerQueries {
		t.Fatalf("inner queries not reduced: base %d, constrained %d",
			bm.InnerQueries, om.InnerQueries)
	}
	if strings.Contains(opt.Stmt.String(), "t2") {
		t.Fatalf("merged arm must use a single table instance: %s", opt.Stmt)
	}
}

func TestUnfoldWithConstraintsSubsumesArms(t *testing.T) {
	// name(x,n) ∪ senior(x,n): the senior arm adds age > 30 over the same
	// flattened shape, so its rows are a subset of the name arm's and the
	// engine's set semantics make the union arm redundant.
	u := rewrite.UCQ{
		{Atoms: []rewrite.Atom{dataAtom("name", vt("x"), vt("n"))}, Answer: []string{"x", "n"}},
		{Atoms: []rewrite.Atom{dataAtom("senior", vt("x"), vt("n"))}, Answer: []string{"x", "n"}},
	}
	base, err := Unfold(u, splitMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Arms != 2 || base.SubsumedArms != 0 {
		t.Fatalf("baseline arms = %d, subsumed = %d", base.Arms, base.SubsumedArms)
	}

	opt, err := UnfoldWith(u, splitMapping(), nil, splitConstraints(t))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Arms != 1 || opt.SubsumedArms != 1 {
		t.Fatalf("arms = %d, subsumed = %d; want the senior arm dropped\n%s",
			opt.Arms, opt.SubsumedArms, opt.Stmt)
	}
	if m := opt.Metrics(); m.Unions != 0 {
		t.Fatalf("union should collapse: %+v", m)
	}
	// The surviving arm must be the unguarded (superset) one.
	if sql := opt.Stmt.String(); strings.Contains(sql, "age") {
		t.Fatalf("kept the narrower arm: %s", sql)
	}
}

func TestUnfoldWithNilConstraintsMatchesUnfold(t *testing.T) {
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			dataAtom("name", vt("x"), vt("n")),
			dataAtom("age", vt("x"), vt("a")),
		},
		Answer: []string{"x", "n", "a"},
	}
	a, err := Unfold(rewrite.UCQ{cq}, splitMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnfoldWith(rewrite.UCQ{cq}, splitMapping(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stmt.String() != b.Stmt.String() {
		t.Fatalf("nil constraints must be a no-op:\n%s\nvs\n%s", a.Stmt, b.Stmt)
	}
}

func TestUnfoldWithConstraintsExecution(t *testing.T) {
	// Semantics check: merged and unmerged plans return the same rows.
	db := sqldb.NewDatabase("t")
	if _, err := db.CreateTable(&sqldb.TableDef{Name: "emp", Columns: []sqldb.Column{
		{Name: "id", Type: sqldb.TInt, NotNull: true},
		{Name: "name", Type: sqldb.TText},
		{Name: "age", Type: sqldb.TInt},
	}, PrimaryKey: []int{0}}); err != nil {
		t.Fatal(err)
	}
	rows := []sqldb.Row{
		{sqldb.NewInt(1), sqldb.NewString("A"), sqldb.NewInt(50)},
		{sqldb.NewInt(2), sqldb.NewString("B"), sqldb.NewInt(20)},
		{sqldb.NewInt(3), sqldb.Null, sqldb.NewInt(40)},
	}
	for _, r := range rows {
		if err := db.Insert("emp", r); err != nil {
			t.Fatal(err)
		}
	}
	cq := &rewrite.CQ{
		Atoms: []rewrite.Atom{
			dataAtom("name", vt("x"), vt("n")),
			dataAtom("age", vt("x"), vt("a")),
		},
		Answer: []string{"x", "n", "a"},
	}
	base, err := Unfold(rewrite.UCQ{cq}, splitMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := UnfoldWith(rewrite.UCQ{cq}, splitMapping(), nil, analyze.DeriveConstraints(nil, nil, db))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := db.ExecSelect(base.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := db.ExecSelect(opt.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Rows) != 2 || len(ro.Rows) != len(rb.Rows) {
		t.Fatalf("row counts diverge: base %d, constrained %d", len(rb.Rows), len(ro.Rows))
	}
}

// coreMapping pairs the NPD wellbore and wellbore-core IRI templates: the
// core template extends the wellbore one, so untyped placeholders let
// wellbore/{id} absorb "7/core/1".
func coreMapping() *r2rml.Mapping {
	return r2rml.MustParseMapping(`
[PrefixDeclaration]
t: http://t/

[MappingDeclaration]
mappingId wellbore
target    t:wellbore/{id} a t:Wellbore .
source    SELECT id FROM wellbore

mappingId core
target    t:wellbore/{wid}/core/{n} a t:WellboreCore .
source    SELECT wid, n FROM core
`)
}

// coreDatabase declares wellbore.id and core.wid with the given type.
func coreDatabase(t *testing.T, idType sqldb.ColType) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase("t")
	for _, def := range []*sqldb.TableDef{
		{Name: "wellbore", Columns: []sqldb.Column{{Name: "id", Type: idType, NotNull: true}}},
		{Name: "core", Columns: []sqldb.Column{
			{Name: "wid", Type: idType, NotNull: true},
			{Name: "n", Type: sqldb.TInt, NotNull: true},
		}},
	} {
		if _, err := db.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestUnfoldTypedTemplateDisjointness(t *testing.T) {
	// Wellbore(x) ∧ WellboreCore(x): the two subject templates have
	// different skeletons.
	u := rewrite.UCQ{{
		Atoms:  []rewrite.Atom{classAtom("Wellbore", vt("x")), classAtom("WellboreCore", vt("x"))},
		Answer: []string{"x"},
	}}
	// Without constraints the placeholders are untyped: the join falls
	// back to comparing the concatenated strings.
	off, err := Unfold(u, coreMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if off.Arms != 1 || !strings.Contains(off.Stmt.String(), "||") {
		t.Fatalf("cons == nil must keep the concat join, got %d arms:\n%v", off.Arms, off.Stmt)
	}
	// Over TEXT keys the fallback is needed: "7/core/1" is a wellbore id
	// whose IRI equals core (7, 1)'s.
	textDB := coreDatabase(t, sqldb.TText)
	text, err := UnfoldWith(u, coreMapping(), nil, analyze.DeriveConstraints(nil, nil, textDB))
	if err != nil {
		t.Fatal(err)
	}
	if text.Arms != 1 || !strings.Contains(text.Stmt.String(), "||") {
		t.Fatalf("TEXT keys must keep the concat join, got %d arms:\n%v", text.Arms, text.Stmt)
	}
	for _, r := range []struct {
		table string
		row   sqldb.Row
	}{
		{"wellbore", sqldb.Row{sqldb.NewString("7/core/1")}},
		{"core", sqldb.Row{sqldb.NewString("7"), sqldb.NewInt(1)}},
	} {
		if err := textDB.Insert(r.table, r.row); err != nil {
			t.Fatal(err)
		}
	}
	res, err := textDB.ExecSelect(text.Stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("TEXT keys collide on one IRI, got %d rows", len(res.Rows))
	}
	// Over INT keys wellbore/{id} never contains "/core/": the walk prunes
	// the pair, and so does static arc consistency.
	intCons := analyze.DeriveConstraints(nil, nil, coreDatabase(t, sqldb.TInt))
	for _, staticPrune := range []bool{false, true} {
		on, err := UnfoldOpts(u, coreMapping(), nil, Opts{Cons: intCons, StaticPrune: staticPrune})
		if err != nil {
			t.Fatal(err)
		}
		if on.Arms != 0 || on.Stmt != nil || on.PrunedArms+on.StaticPrunedCands == 0 {
			t.Fatalf("static=%v: INT keys must prune the pair, got %d arms:\n%v", staticPrune, on.Arms, on.Stmt)
		}
	}
}
