package planck

import (
	"strings"
	"testing"

	"npdbench/internal/analyze"
	"npdbench/internal/owl"
	"npdbench/internal/rdf"
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

func TestInferTypesDisjointClassConflict(t *testing.T) {
	onto := testOntology()
	cq := &rewrite.CQ{
		Atoms:  []rewrite.Atom{classAtom("Wellbore", "x"), classAtom("Company", "x")},
		Answer: []string{"x"},
	}
	c := InferTypes(cq, onto).Conflict(onto)
	if c == nil {
		t.Fatal("expected disjoint-class conflict for ?x")
	}
	if c.Var != "x" || !strings.Contains(c.Reason, "disjoint") {
		t.Fatalf("unexpected conflict: %v", c)
	}
}

func TestInferTypesRangeVsClassConflict(t *testing.T) {
	onto := testOntology()
	// ?y is in the range of drilledBy (⊑ Company) and asserted a Wellbore:
	// the domain/range axioms make ∃drilledBy⁻ ⊑ Company, disjoint with
	// Wellbore.
	cq := &rewrite.CQ{
		Atoms:  []rewrite.Atom{objAtom("drilledBy", "x", "y"), classAtom("Wellbore", "y")},
		Answer: []string{"x"},
	}
	if c := InferTypes(cq, onto).Conflict(onto); c == nil {
		t.Fatal("expected range-vs-class conflict for ?y")
	}
	// The satisfiable variant must pass.
	sat := &rewrite.CQ{
		Atoms:  []rewrite.Atom{objAtom("drilledBy", "x", "y"), classAtom("Company", "y")},
		Answer: []string{"x"},
	}
	if c := InferTypes(sat, onto).Conflict(onto); c != nil {
		t.Fatalf("satisfiable CQ flagged: %v", c)
	}
}

func TestInferTypesIRILiteralConflict(t *testing.T) {
	onto := testOntology()
	// ?y is an object-property object (IRI) and a data-property object
	// (literal) at once.
	cq := &rewrite.CQ{
		Atoms:  []rewrite.Atom{objAtom("drilledBy", "x", "y"), dataAtom("name", "z", "y")},
		Answer: []string{"x"},
	}
	c := InferTypes(cq, onto).Conflict(onto)
	if c == nil || c.Var != "y" {
		t.Fatalf("expected IRI/literal conflict for ?y, got %v", c)
	}
}

func TestUnsatCQDisjointProperties(t *testing.T) {
	onto := testOntology()
	cq := &rewrite.CQ{
		Atoms:  []rewrite.Atom{objAtom("inFacility", "x", "y"), objAtom("outFacility", "x", "y")},
		Answer: []string{"x"},
	}
	if reason := UnsatCQ(cq, onto); reason == "" {
		t.Fatal("expected disjoint-property contradiction")
	}
	// Different term pairs: no contradiction.
	sat := &rewrite.CQ{
		Atoms:  []rewrite.Atom{objAtom("inFacility", "x", "y"), objAtom("outFacility", "x", "z")},
		Answer: []string{"x"},
	}
	if reason := UnsatCQ(sat, onto); reason != "" {
		t.Fatalf("satisfiable CQ flagged: %s", reason)
	}
}

func TestPruneUCQ(t *testing.T) {
	onto := testOntology()
	bad := &rewrite.CQ{
		Atoms:  []rewrite.Atom{classAtom("ExplorationWellbore", "x"), classAtom("DevelopmentWellbore", "x")},
		Answer: []string{"x"},
	}
	good := &rewrite.CQ{
		Atoms:  []rewrite.Atom{classAtom("Wellbore", "x")},
		Answer: []string{"x"},
	}
	res := PruneUCQ(rewrite.UCQ{bad, good}, onto)
	if res.Dropped != 1 || len(res.Kept) != 1 || res.Kept[0] != good {
		t.Fatalf("dropped=%d kept=%d", res.Dropped, len(res.Kept))
	}
	if len(res.Reasons) != 1 || !strings.Contains(res.Reasons[0], "disjoint") {
		t.Fatalf("reasons: %v", res.Reasons)
	}
}

func intLit(s string) rdf.Term  { return rdf.NewTypedLiteral(s, rdf.XSDInteger) }
func dateLit(s string) rdf.Term { return rdf.NewTypedLiteral(s, rdf.XSDDate) }

func TestUnsatisfiableBounds(t *testing.T) {
	cases := []struct {
		name   string
		bounds []Bound
		unsat  bool
	}{
		{"conflicting equalities", []Bound{
			{Var: "x", Op: "=", Val: intLit("1")},
			{Var: "x", Op: "=", Val: intLit("2")},
		}, true},
		{"equality vs disequality", []Bound{
			{Var: "x", Op: "=", Val: intLit("5")},
			{Var: "x", Op: "!=", Val: intLit("5")},
		}, true},
		{"equality above upper bound", []Bound{
			{Var: "x", Op: "=", Val: intLit("10")},
			{Var: "x", Op: "<", Val: intLit("10")},
		}, true},
		{"empty numeric range", []Bound{
			{Var: "x", Op: ">", Val: intLit("7")},
			{Var: "x", Op: "<", Val: intLit("3")},
		}, true},
		{"empty date range", []Bound{
			{Var: "d", Op: ">=", Val: dateLit("2010-01-01")},
			{Var: "d", Op: "<=", Val: dateLit("2009-01-01")},
		}, true},
		{"touching closed bounds are satisfiable", []Bound{
			{Var: "x", Op: ">=", Val: intLit("3")},
			{Var: "x", Op: "<=", Val: intLit("3")},
		}, false},
		{"touching half-open bounds are empty", []Bound{
			{Var: "x", Op: ">", Val: intLit("3")},
			{Var: "x", Op: "<=", Val: intLit("3")},
		}, true},
		{"independent variables do not interact", []Bound{
			{Var: "x", Op: ">", Val: intLit("7")},
			{Var: "y", Op: "<", Val: intLit("3")},
		}, false},
		{"mixed families are left to runtime", []Bound{
			{Var: "x", Op: "=", Val: intLit("1")},
			{Var: "x", Op: "=", Val: rdf.NewLiteral("one")},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reason := UnsatisfiableBounds(tc.bounds)
			if tc.unsat && reason == "" {
				t.Fatal("expected contradiction")
			}
			if !tc.unsat && reason != "" {
				t.Fatalf("unexpected contradiction: %s", reason)
			}
		})
	}
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
