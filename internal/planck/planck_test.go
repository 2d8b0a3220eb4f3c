package planck

import (
	"testing"

	"npdbench/internal/analyze"
	"npdbench/internal/owl"
	"npdbench/internal/rewrite"
	"npdbench/internal/sqldb"
)

const ns = "http://example.org/"

// testOntology mirrors the structure the NPD ontology uses: a class
// hierarchy with declared disjointness, domain/range axioms, and a
// disjoint-property pair.
func testOntology() *owl.Ontology {
	o := owl.New(ns + "onto")
	for _, c := range []string{"Wellbore", "Company", "Field", "ExplorationWellbore", "DevelopmentWellbore"} {
		o.DeclareClass(ns + c)
	}
	o.AddSubClass(owl.NamedConcept(ns+"ExplorationWellbore"), owl.NamedConcept(ns+"Wellbore"))
	o.AddSubClass(owl.NamedConcept(ns+"DevelopmentWellbore"), owl.NamedConcept(ns+"Wellbore"))
	o.AddDisjoint(owl.NamedConcept(ns+"Wellbore"), owl.NamedConcept(ns+"Company"))
	o.AddDisjoint(owl.NamedConcept(ns+"ExplorationWellbore"), owl.NamedConcept(ns+"DevelopmentWellbore"))
	o.DeclareObjectProperty(ns + "drilledBy")
	o.AddDomain(ns+"drilledBy", false, ns+"Wellbore")
	o.AddRange(ns+"drilledBy", ns+"Company")
	o.DeclareDataProperty(ns + "name")
	o.DeclareObjectProperty(ns + "inFacility")
	o.DeclareObjectProperty(ns + "outFacility")
	o.AddDisjointProperties(owl.PropRef{Prop: ns + "inFacility"}, owl.PropRef{Prop: ns + "outFacility"})
	return o
}

func classAtom(c, v string) rewrite.Atom {
	return rewrite.Atom{Kind: rewrite.ClassAtom, Pred: ns + c, S: rewrite.Term{Var: v}}
}

func objAtom(p, s, o string) rewrite.Atom {
	return rewrite.Atom{Kind: rewrite.ObjPropAtom, Pred: ns + p, S: rewrite.Term{Var: s}, O: rewrite.Term{Var: o}}
}

func dataAtom(p, s, o string) rewrite.Atom {
	return rewrite.Atom{Kind: rewrite.DataPropAtom, Pred: ns + p, S: rewrite.Term{Var: s}, O: rewrite.Term{Var: o}}
}

func TestCheckCQViolations(t *testing.T) {
	onto := testOntology()
	v := &Verifier{Onto: onto}
	good := &rewrite.CQ{
		Atoms:  []rewrite.Atom{classAtom("Wellbore", "x"), dataAtom("name", "x", "n")},
		Answer: []string{"x", "n"},
	}
	if err := v.CheckCQ("test", good); err != nil {
		t.Fatalf("well-formed CQ rejected: %v", err)
	}
	cases := []struct {
		check string
		cq    *rewrite.CQ
	}{
		{"cq-empty", &rewrite.CQ{Answer: []string{"x"}}},
		{"atom-pred", &rewrite.CQ{Atoms: []rewrite.Atom{{Kind: rewrite.ClassAtom, S: rewrite.Term{Var: "x"}}}}},
		{"certain-var", &rewrite.CQ{Atoms: []rewrite.Atom{classAtom("Wellbore", "x")}, Answer: []string{"y"}}},
		{"atom-kind", &rewrite.CQ{Atoms: []rewrite.Atom{classAtom("drilledBy", "x")}, Answer: []string{"x"}}},
		{"atom-kind", &rewrite.CQ{
			Atoms:  []rewrite.Atom{objAtom("name", "x", "y")},
			Answer: []string{"x"},
		}},
		{"atom-class-object", &rewrite.CQ{
			Atoms:  []rewrite.Atom{{Kind: rewrite.ClassAtom, Pred: ns + "Wellbore", S: rewrite.Term{Var: "x"}, O: rewrite.Term{Var: "y"}}},
			Answer: []string{"x"},
		}},
	}
	for _, tc := range cases {
		err := v.CheckCQ("test", tc.cq)
		if err == nil {
			t.Fatalf("%s: expected violation", tc.check)
		}
		viol, ok := err.(*Violation)
		if !ok || viol.Check != tc.check {
			t.Fatalf("want check %q, got %v", tc.check, err)
		}
		if viol.Stage != "test" {
			t.Fatalf("stage not propagated: %v", viol)
		}
	}
}

func TestCheckUCQAnswerPreservation(t *testing.T) {
	v := &Verifier{}
	a := &rewrite.CQ{Atoms: []rewrite.Atom{classAtom("Wellbore", "x")}, Answer: []string{"x"}}
	b := &rewrite.CQ{Atoms: []rewrite.Atom{classAtom("Company", "y")}, Answer: []string{"y"}}
	err := v.CheckUCQ("test", rewrite.UCQ{a, b}, []string{"x"})
	if err == nil {
		t.Fatal("expected answer-preserved violation")
	}
	if viol := err.(*Violation); viol.Check != "answer-preserved" {
		t.Fatalf("got %v", err)
	}
	if err := v.CheckUCQ("test", rewrite.UCQ{a}, []string{"x"}); err != nil {
		t.Fatalf("preserved answer rejected: %v", err)
	}
	if err := v.CheckUCQ("test", rewrite.UCQ{}, []string{"x"}); err == nil {
		t.Fatal("expected ucq-empty violation")
	}
}

// sqlFixture builds a catalog plus a well-formed single-arm statement in
// the unfolder's output shape.
func sqlFixture(t *testing.T) (*sqldb.Database, *analyze.Constraints, *sqldb.SelectStmt) {
	t.Helper()
	db := sqldb.NewDatabase("fixture")
	if _, err := db.CreateTable(&sqldb.TableDef{
		Name: "wellbore",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt, NotNull: true},
			{Name: "name", Type: sqldb.TText},
			{Name: "year", Type: sqldb.TInt},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqldb.Parse(`SELECT 'w' || t1.id AS v_x, 0 AS v_x_t, '' AS v_x_dt,
		t1.name AS v_n, 2 AS v_n_t, '' AS v_n_dt
		FROM wellbore t1 WHERE t1.id IS NOT NULL AND t1.name IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	return db, nil, stmt
}

func TestCheckSQLAcceptsWellFormed(t *testing.T) {
	db, cons, stmt := sqlFixture(t)
	v := &Verifier{DB: db, Cons: cons}
	if err := v.CheckSQL("test", stmt, []string{"x", "n"}); err != nil {
		t.Fatalf("well-formed statement rejected: %v", err)
	}
}

func TestCheckSQLViolations(t *testing.T) {
	db, cons, _ := sqlFixture(t)
	v := &Verifier{DB: db, Cons: cons}
	parse := func(sql string) *sqldb.SelectStmt {
		t.Helper()
		stmt, err := sqldb.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt
	}
	cases := []struct {
		check string
		vars  []string
		sql   string
	}{
		{"projection-shape", []string{"x"},
			`SELECT t1.id AS v_x FROM wellbore t1`},
		{"projection-shape", []string{"x"},
			`SELECT t1.id AS v_x, 0 AS wrong, '' AS v_x_dt FROM wellbore t1`},
		{"table-exists", []string{"x"},
			`SELECT t1.id AS v_x, 0 AS v_x_t, '' AS v_x_dt FROM nosuch t1 WHERE t1.id IS NOT NULL`},
		{"alias-resolves", []string{"x"},
			`SELECT t9.id AS v_x, 0 AS v_x_t, '' AS v_x_dt FROM wellbore t1 WHERE t1.id IS NOT NULL`},
		{"column-exists", []string{"x"},
			`SELECT t1.nocol AS v_x, 0 AS v_x_t, '' AS v_x_dt FROM wellbore t1 WHERE t1.nocol IS NOT NULL`},
		{"alias-unique", []string{"x"},
			`SELECT t1.id AS v_x, 0 AS v_x_t, '' AS v_x_dt FROM wellbore t1, wellbore t1 WHERE t1.id IS NOT NULL`},
		{"comparison-types", []string{"x"},
			`SELECT t1.id AS v_x, 0 AS v_x_t, '' AS v_x_dt FROM wellbore t1 WHERE t1.id IS NOT NULL AND t1.year < 'abc'`},
		{"notnull-guard", []string{"x"},
			`SELECT t1.name AS v_x, 2 AS v_x_t, '' AS v_x_dt FROM wellbore t1`},
	}
	for _, tc := range cases {
		err := v.CheckSQL("test", parse(tc.sql), tc.vars)
		if err == nil {
			t.Fatalf("%s: expected violation for %s", tc.check, tc.sql)
		}
		viol, ok := err.(*Violation)
		if !ok || viol.Check != tc.check {
			t.Fatalf("want check %q, got %v", tc.check, err)
		}
	}
}

func TestCheckSQLGuardElisionNeedsConstraints(t *testing.T) {
	db, _, _ := sqlFixture(t)
	// t1.id is NOT NULL in the catalog; the guard may be elided only when
	// the constraints artifact is present to prove it.
	stmt, err := sqldb.Parse(`SELECT t1.id AS v_x, 0 AS v_x_t, '' AS v_x_dt FROM wellbore t1`)
	if err != nil {
		t.Fatal(err)
	}
	noCons := &Verifier{DB: db}
	if err := noCons.CheckSQL("test", stmt, []string{"x"}); err == nil {
		t.Fatal("guard elision accepted without a constraints artifact")
	}
	withCons := &Verifier{DB: db, Cons: analyze.DeriveConstraints(db)}
	if err := withCons.CheckSQL("test", stmt, []string{"x"}); err != nil {
		t.Fatalf("catalog-proven elision rejected: %v", err)
	}
}

func TestCheckSQLSeesThroughDerivedTables(t *testing.T) {
	db, _, _ := sqlFixture(t)
	v := &Verifier{DB: db, Cons: analyze.DeriveConstraints(db)}
	// The derived table projects plain columns of a single base table, so
	// the catalog NOT NULL proof for id flows through the view.
	stmt, err := sqldb.Parse(`SELECT t1.id AS v_x, 0 AS v_x_t, '' AS v_x_dt
		FROM (SELECT id, name FROM wellbore) t1`)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.CheckSQL("test", stmt, []string{"x"}); err != nil {
		t.Fatalf("transparent view rejected: %v", err)
	}
	// A column absent from the view must still be caught.
	bad, err := sqldb.Parse(`SELECT t1.year AS v_x, 0 AS v_x_t, '' AS v_x_dt
		FROM (SELECT id, name FROM wellbore) t1 WHERE t1.year IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	errBad := v.CheckSQL("test", bad, []string{"x"})
	if errBad == nil {
		t.Fatal("expected column-exists violation through the view")
	}
	if viol := errBad.(*Violation); viol.Check != "column-exists" {
		t.Fatalf("got %v", errBad)
	}
}
