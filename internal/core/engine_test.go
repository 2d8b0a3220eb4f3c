package core

import (
	"strings"
	"testing"

	"npdbench/internal/owl"
	"npdbench/internal/r2rml"
	"npdbench/internal/rdf"
	"npdbench/internal/sqldb"
	"npdbench/internal/unfold"
)

const exNS = "http://example.org/"

// exampleSpec builds the paper's running example (Sect. 4, Example 4.1):
// database D, mappings M1–M6, plus a small ontology with a hierarchy and an
// existential axiom to exercise reasoning.
func exampleSpec(t *testing.T) Spec {
	t.Helper()
	db := sqldb.NewDatabase("example")
	mustCreate := func(def *sqldb.TableDef) {
		t.Helper()
		if _, err := db.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate(&sqldb.TableDef{
		Name: "TEmployee",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt, NotNull: true},
			{Name: "name", Type: sqldb.TText},
			{Name: "branch", Type: sqldb.TText},
		},
		PrimaryKey: []int{0},
	})
	mustCreate(&sqldb.TableDef{
		Name: "TProduct",
		Columns: []sqldb.Column{
			{Name: "product", Type: sqldb.TText, NotNull: true},
			{Name: "size", Type: sqldb.TText},
		},
		PrimaryKey: []int{0},
	})
	mustCreate(&sqldb.TableDef{
		Name: "TAssignment",
		Columns: []sqldb.Column{
			{Name: "branch", Type: sqldb.TText, NotNull: true},
			{Name: "task", Type: sqldb.TText, NotNull: true},
		},
		PrimaryKey: []int{0, 1},
	})
	mustCreate(&sqldb.TableDef{
		Name: "TSellsProduct",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt, NotNull: true},
			{Name: "product", Type: sqldb.TText, NotNull: true},
		},
		PrimaryKey: []int{0, 1},
		ForeignKeys: []sqldb.ForeignKey{
			{Columns: []int{0}, RefTable: "TEmployee", RefColumns: []int{0}},
			{Columns: []int{1}, RefTable: "TProduct", RefColumns: []int{0}},
		},
	})
	ins := func(table string, rows ...sqldb.Row) {
		t.Helper()
		for _, r := range rows {
			if err := db.Insert(table, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ins("TEmployee",
		sqldb.Row{sqldb.NewInt(1), sqldb.NewString("John"), sqldb.NewString("B1")},
		sqldb.Row{sqldb.NewInt(2), sqldb.NewString("Lisa"), sqldb.NewString("B1")},
	)
	ins("TProduct",
		sqldb.Row{sqldb.NewString("p1"), sqldb.NewString("big")},
		sqldb.Row{sqldb.NewString("p2"), sqldb.NewString("big")},
		sqldb.Row{sqldb.NewString("p3"), sqldb.NewString("small")},
		sqldb.Row{sqldb.NewString("p4"), sqldb.NewString("big")},
	)
	ins("TAssignment",
		sqldb.Row{sqldb.NewString("B1"), sqldb.NewString("task1")},
		sqldb.Row{sqldb.NewString("B1"), sqldb.NewString("task2")},
		sqldb.Row{sqldb.NewString("B2"), sqldb.NewString("task1")},
		sqldb.Row{sqldb.NewString("B2"), sqldb.NewString("task2")},
	)
	ins("TSellsProduct",
		sqldb.Row{sqldb.NewInt(1), sqldb.NewString("p1")},
		sqldb.Row{sqldb.NewInt(1), sqldb.NewString("p2")},
		sqldb.Row{sqldb.NewInt(2), sqldb.NewString("p2")},
		sqldb.Row{sqldb.NewInt(2), sqldb.NewString("p3")},
	)

	// Ontology: Employee ⊑ Person; SellsProduct domain Employee;
	// Employee ⊑ ∃WorksFor.Branch (existential — tree witness source).
	onto := owl.New(exNS + "onto")
	onto.AddSubClass(owl.NamedConcept(exNS+"Employee"), owl.NamedConcept(exNS+"Person"))
	onto.AddDomain(exNS+"SellsProduct", false, exNS+"Employee")
	onto.AddExistential(owl.NamedConcept(exNS+"Employee"), exNS+"WorksFor", false, exNS+"Branch")
	onto.DeclareClass(exNS + "ProductSize")
	onto.DeclareClass(exNS + "Branch")
	onto.DeclareObjectProperty(exNS + "AssignedTo")
	onto.DeclareDataProperty(exNS + "name")

	mapping := r2rml.MustParseMapping(`
[PrefixDeclaration]
:  http://example.org/

[MappingDeclaration]
mappingId M1
target    :emp/{id} a :Employee ; :name {name} .
source    SELECT id, name FROM TEmployee

mappingId M2
target    :branch/{branch} a :Branch .
source    SELECT branch FROM TAssignment

mappingId M3
target    :branch/{branch} a :Branch .
source    SELECT branch FROM TEmployee

mappingId M4
target    :emp/{id} :SellsProduct :prod/{product} .
source    SELECT id, product FROM TSellsProduct

mappingId M5
target    :size/{size} a :ProductSize .
source    SELECT size FROM TProduct

mappingId M6
target    :emp/{id} :AssignedTo :task/{task} .
source    SELECT id, task FROM TEmployee NATURAL JOIN TAssignment

mappingId M7
target    :emp/{id} :WorksFor :branch/{branch} .
source    SELECT id, branch FROM TEmployee
`)
	prefixes := rdf.StandardPrefixes()
	prefixes[""] = exNS
	return Spec{Onto: onto, Mapping: mapping, DB: db, Prefixes: prefixes}
}

func TestEngineSimpleClassQuery(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x WHERE { ?x a :Employee }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("employees: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
}

func TestEngineHierarchyReasoning(t *testing.T) {
	// Person has no direct mapping; instances come from Employee via the
	// subclass axiom (T-mappings) and from SellsProduct via the domain
	// axiom.
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT DISTINCT ?x WHERE { ?x a :Person }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("persons: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
}

func TestEngineHierarchyViaUCQExpansion(t *testing.T) {
	// Same result with T-mappings off (classic UCQ expansion).
	e, err := NewEngine(exampleSpec(t), Options{TMappings: false, Existential: true})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT DISTINCT ?x WHERE { ?x a :Person }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("persons (UCQ mode): got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
	if ans.Stats.CQCount < 2 {
		t.Fatalf("expected a multi-CQ rewriting, got %d", ans.Stats.CQCount)
	}
}

func TestTMappingsKeepRenamedColumns(t *testing.T) {
	// Two assertions of :label over table T: the second's WHERE is a
	// superset of the first's, but {v} reads column a in one and column b
	// in the other, so T-mapping optimization must keep both.
	db := sqldb.NewDatabase("alias")
	if _, err := db.CreateTable(&sqldb.TableDef{Name: "T", Columns: []sqldb.Column{
		{Name: "id", Type: sqldb.TInt, NotNull: true},
		{Name: "a", Type: sqldb.TText},
		{Name: "b", Type: sqldb.TText},
		{Name: "kind", Type: sqldb.TText},
	}, PrimaryKey: []int{0}}); err != nil {
		t.Fatal(err)
	}
	row := sqldb.Row{sqldb.NewInt(1), sqldb.NewString("x"), sqldb.NewString("y"), sqldb.NewString("K")}
	if err := db.Insert("T", row); err != nil {
		t.Fatal(err)
	}
	onto := owl.New(exNS + "onto")
	onto.DeclareDataProperty(exNS + "label")
	mapping := r2rml.MustParseMapping(`
[PrefixDeclaration]
:  http://example.org/

[MappingDeclaration]
mappingId plain
target    :t/{id} :label {v} .
source    SELECT id, a AS v FROM T

mappingId kinded
target    :t/{id} :label {v} .
source    SELECT id, b AS v FROM T WHERE kind = 'K'
`)
	prefixes := rdf.StandardPrefixes()
	prefixes[""] = exNS
	spec := Spec{Onto: onto, Mapping: mapping, DB: db, Prefixes: prefixes}
	answers := map[bool]string{}
	for _, tm := range []bool{true, false} {
		opts := DefaultOptions()
		opts.TMappings = tm
		e, err := NewEngine(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := e.Query(`SELECT ?x ?v WHERE { ?x :label ?v }`)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Len() != 2 {
			t.Errorf("TMappings=%v: got %d rows, want 2\n%s", tm, ans.Len(), ans.ResultSet)
		}
		answers[tm] = canonical(ans)
	}
	if answers[true] != answers[false] {
		t.Fatalf("T-mappings change the answer:\non:\n%s\noff:\n%s", answers[true], answers[false])
	}
}

func TestEngineJoinQuery(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?n ?p WHERE { ?x :name ?n . ?x :SellsProduct ?p }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 4 {
		t.Fatalf("join: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
}

func TestEngineConstantInQuery(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?p WHERE { <http://example.org/emp/1> :SellsProduct ?p }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("constant subject: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
}

func TestEngineFilterPushdown(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x ?n WHERE { ?x :name ?n . FILTER(?n = "John") }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Fatalf("filter: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
}

func TestEngineRefusesTruncatedRewriting(t *testing.T) {
	// Person expands to Person, Employee and ∃SellsProduct: a cap of one
	// CQ truncates the rewriting, and the engine must say so rather than
	// answer from the partial UCQ.
	e, err := NewEngine(exampleSpec(t), Options{TMappings: false, Existential: true, MaxCQs: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Query(`SELECT DISTINCT ?x WHERE { ?x a :Person }`)
	if err == nil || !strings.Contains(err.Error(), "rewriting truncated at MaxCQs=1, answers would be incomplete") {
		t.Fatalf("want a truncation error, got %v", err)
	}
}

func TestEngineExistentialReasoning(t *testing.T) {
	// ?x :WorksFor ?b — with existential reasoning OFF, only explicit
	// WorksFor triples (from M7). The tree-witness case: a query where the
	// branch variable is non-distinguished should succeed for every
	// Employee even without M7 data... here M7 provides data anyway, so we
	// check the rewriting structure instead.
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.ParseQuery(`SELECT ?x WHERE { ?x a :Employee . ?x :WorksFor [ a :Branch ] }`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Stats.TreeWitnesses < 1 {
		t.Fatalf("expected at least one tree witness, got %d", ans.Stats.TreeWitnesses)
	}
	// Every employee satisfies the pattern thanks to the existential axiom,
	// even an employee with no WorksFor fact: both employees here have
	// facts, so the answer must be exactly both.
	if ans.Len() != 2 {
		t.Fatalf("existential: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
}

func TestEngineExistentialProvesEmptyWithoutFacts(t *testing.T) {
	// Drop M7 (no WorksFor facts at all). With existential reasoning the
	// query must still return all employees; without it, none.
	spec := exampleSpec(t)
	var maps []*r2rml.TriplesMap
	for _, m := range spec.Mapping.Maps {
		if m.Name != "M7" {
			maps = append(maps, m)
		}
	}
	spec.Mapping.Maps = maps

	withEx, err := NewEngine(spec, Options{TMappings: true, Existential: true})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := withEx.Query(`SELECT ?x WHERE { ?x a :Employee . ?x :WorksFor [ a :Branch ] }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("with existential: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}

	withoutEx, err := NewEngine(spec, Options{TMappings: true, Existential: false})
	if err != nil {
		t.Fatal(err)
	}
	ans2, err := withoutEx.Query(`SELECT ?x WHERE { ?x a :Employee . ?x :WorksFor [ a :Branch ] }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Len() != 0 {
		t.Fatalf("without existential: got %d rows", ans2.Len())
	}
}

func TestEngineOptional(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every ProductSize, optionally nothing else — smoke-test OPTIONAL
	// through the engine using sells: employees OPTIONAL AssignedTo.
	ans, err := e.Query(`SELECT ?x ?t WHERE { ?x a :Employee OPTIONAL { ?x :AssignedTo ?t } }`)
	if err != nil {
		t.Fatal(err)
	}
	// Both employees are in B1 with two tasks each -> 4 rows.
	if ans.Len() != 4 {
		t.Fatalf("optional: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
}

func TestEngineAggregates(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x (COUNT(?p) AS ?n) WHERE { ?x :SellsProduct ?p } GROUP BY ?x ORDER BY ?x`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("aggregate: got %d rows\n%s", ans.Len(), ans.ResultSet)
	}
	for _, row := range ans.Rows {
		if row[1].Value != "2" {
			t.Fatalf("each employee sells 2 products, got %s", row[1])
		}
	}
}

func TestEngineSelfJoinElimination(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// name and Employee-ness both come from TEmployee with the same
	// subject template: the unfolder must merge them into one scan.
	ans, err := e.Query(`SELECT ?x ?n WHERE { ?x a :Employee . ?x :name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("got %d rows", ans.Len())
	}
	if ans.Stats.SelfJoinsEliminated < 1 {
		t.Fatalf("expected self-join elimination, stats: %+v", ans.Stats)
	}
	// The first union arm (both atoms from M1 over TEmployee) must be a
	// single-table scan; later arms legitimately join other T-mapping
	// sources.
	firstArm := ans.Stats.UnfoldedSQL
	if i := strings.Index(firstArm, "UNION"); i >= 0 {
		firstArm = firstArm[:i]
	}
	if strings.Contains(firstArm, "t2") {
		t.Fatalf("first arm still self-joins:\n%s", ans.Stats.UnfoldedSQL)
	}
}

func TestEngineTemplateMismatchPruning(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Joining an employee IRI with a product IRI via shared variable is
	// impossible at the template level: :emp/{id} vs :prod/{product}.
	ans, err := e.Query(`SELECT ?y WHERE { ?x :SellsProduct ?y . ?y :SellsProduct ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 {
		t.Fatalf("expected empty answer, got %d rows", ans.Len())
	}
	if ans.Stats.PrunedArms == 0 && ans.Stats.StaticPrunedArms == 0 {
		t.Fatal("expected pruned arms from template mismatch")
	}
}

func TestStoreEngineAgreesWithOBDA(t *testing.T) {
	spec := exampleSpec(t)
	obda, err := NewEngine(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStoreEngine(spec, StoreOptions{Reasoning: true})
	if err != nil {
		t.Fatal(err)
	}
	if store.LoadStats().Triples == 0 {
		t.Fatal("no triples materialized")
	}
	queries := []string{
		`SELECT ?x WHERE { ?x a :Employee }`,
		`SELECT DISTINCT ?x WHERE { ?x a :Person }`,
		`SELECT ?n ?p WHERE { ?x :name ?n . ?x :SellsProduct ?p }`,
		`SELECT DISTINCT ?b WHERE { ?b a :Branch }`,
		`SELECT ?x (COUNT(?p) AS ?n) WHERE { ?x :SellsProduct ?p } GROUP BY ?x`,
	}
	for _, q := range queries {
		a1, err := obda.Query(q)
		if err != nil {
			t.Fatalf("obda %q: %v", q, err)
		}
		a2, err := store.Query(q)
		if err != nil {
			t.Fatalf("store %q: %v", q, err)
		}
		if canonical(a1) != canonical(a2) {
			t.Fatalf("engines disagree on %q:\nOBDA:\n%s\nStore:\n%s", q, a1.ResultSet, a2.ResultSet)
		}
	}
}

func canonical(a *Answer) string {
	lines := make([]string, len(a.Rows))
	for i, row := range a.Rows {
		parts := make([]string, len(row))
		for j, t := range row {
			parts[j] = t.String()
		}
		lines[i] = strings.Join(parts, "\t")
	}
	sortStrings(lines)
	return strings.Join(lines, "\n")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestVirtualGraphShape(t *testing.T) {
	// The virtual instance of Example 4.1 must contain the triples the
	// paper lists.
	spec := exampleSpec(t)
	store, err := NewStoreEngine(spec, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Triple{
		{S: rdf.NewIRI(exNS + "emp/1"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(exNS + "Employee")},
		{S: rdf.NewIRI(exNS + "emp/2"), P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(exNS + "Employee")},
		{S: rdf.NewIRI(exNS + "emp/1"), P: rdf.NewIRI(exNS + "SellsProduct"), O: rdf.NewIRI(exNS + "prod/p1")},
		{S: rdf.NewIRI(exNS + "emp/1"), P: rdf.NewIRI(exNS + "SellsProduct"), O: rdf.NewIRI(exNS + "prod/p2")},
	}
	for _, tr := range want {
		if !store.Store().Contains(tr) {
			t.Fatalf("missing triple %s", tr)
		}
	}
	// :ProductSize has exactly two instances (big, small), regardless of
	// product count — the "intrinsically constant" concept.
	n := store.Store().CountClass(rdf.NewIRI(exNS + "ProductSize"))
	if n != 2 {
		t.Fatalf("ProductSize instances = %d, want 2", n)
	}
}

// TestTranslateRowsAllocations pins phase 4's cost: translating a SQL
// result into solution rows allocates the rows' shared backing arrays,
// not a structure per row. String columns (IRIs built in SQL, plain and
// typed literals) render without allocating, so the count is the same
// for ten rows as for a thousand and well under one per row.
func TestTranslateRowsAllocations(t *testing.T) {
	result := func(n int) *sqldb.Result {
		res := &sqldb.Result{}
		for i := 0; i < n; i++ {
			res.Rows = append(res.Rows, sqldb.Row{
				sqldb.NewString("http://x/w/" + strings.Repeat("1", i%7+1)), sqldb.NewInt(unfold.TagIRI), sqldb.NewString(""),
				sqldb.NewString("name"), sqldb.NewInt(unfold.TagLiteral), sqldb.NewString(""),
				sqldb.NewString("2010-01-01"), sqldb.NewInt(unfold.TagTyped), sqldb.NewString(rdf.XSDDate),
				sqldb.Null, sqldb.NewInt(unfold.TagLiteral), sqldb.NewString(""),
			})
		}
		return res
	}
	slots := []int{3, 0, 1, 2}
	small, large := result(10), result(1000)
	allocs := func(res *sqldb.Result) float64 {
		return testing.AllocsPerRun(20, func() { translateRows(slots, 5, res) })
	}
	a10, a1000 := allocs(small), allocs(large)
	if a10 != a1000 || a1000 > 1000 {
		t.Fatalf("translateRows: %v allocations for 10 rows, %v for 1000; want the same, at most one per row", a10, a1000)
	}
	rows := translateRows(slots, 5, large)
	if got := rows[0]; got[3] != rdf.NewIRI("http://x/w/1") || got[0] != rdf.NewLiteral("name") ||
		got[1] != rdf.NewTypedLiteral("2010-01-01", rdf.XSDDate) || !got[2].IsZero() || !got[4].IsZero() {
		t.Fatalf("row 0 = %v", got)
	}
}
