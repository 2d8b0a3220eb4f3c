package core

import (
	"slices"
	"strings"
	"testing"

	"npdbench/internal/owl"
	"npdbench/internal/r2rml"
	"npdbench/internal/rdf"
	"npdbench/internal/sqldb"
)

// Failure-injection tests: the engine must surface broken specifications
// as errors, not wrong answers or panics.

func TestEngineRejectsIncompleteSpec(t *testing.T) {
	spec := exampleSpec(t)
	broken := spec
	broken.Onto = nil
	if _, err := NewEngine(broken, DefaultOptions()); err == nil {
		t.Fatal("nil ontology must be rejected")
	}
	broken = spec
	broken.DB = nil
	if _, err := NewEngine(broken, DefaultOptions()); err == nil {
		t.Fatal("nil database must be rejected")
	}
	broken = spec
	broken.Mapping = nil
	if _, err := NewStoreEngine(broken, StoreOptions{}); err == nil {
		t.Fatal("nil mapping must be rejected")
	}
}

func TestEngineSurfacesMappingToMissingTable(t *testing.T) {
	spec := exampleSpec(t)
	spec.Mapping.Add(&r2rml.TriplesMap{
		Name:    "broken-src",
		Table:   "no_such_table",
		Subject: r2rml.IRIMap(exNS + "x/{id}"),
		Classes: []string{exNS + "Employee"},
	})
	e, err := NewEngine(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Query(`SELECT ?x WHERE { ?x a :Employee }`)
	if err == nil {
		t.Fatal("query over a mapping to a missing table must fail loudly")
	}
	if !strings.Contains(err.Error(), "no_such_table") {
		t.Fatalf("error should name the missing table: %v", err)
	}
}

func TestEngineSurfacesMalformedMappingSQL(t *testing.T) {
	spec := exampleSpec(t)
	spec.Mapping.Add(&r2rml.TriplesMap{
		Name:    "broken-sql",
		SQL:     "SELEKT id FROM TEmployee",
		Subject: r2rml.IRIMap(exNS + "emp/{id}"),
		Classes: []string{exNS + "Employee"},
	})
	e, err := NewEngine(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`SELECT ?x WHERE { ?x a :Employee }`); err == nil {
		t.Fatal("malformed mapping SQL must fail the query")
	}
}

func TestEngineRejectsVariablePredicateQuery(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`SELECT ?p WHERE { ?x ?p ?y }`); err == nil {
		t.Fatal("variable predicates are out of fragment and must error")
	}
}

func TestEngineParseErrorsPropagate(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"",
		"SELECT",
		"SELECT ?x WHERE { ?x a }",
		"SELECT ?x WHERE { ?x a :Employee",
	} {
		if _, err := e.Query(bad); err == nil {
			t.Errorf("expected parse error for %q", bad)
		}
	}
}

func TestUnmappedTermIsEmptyNotError(t *testing.T) {
	// Querying a declared class with no mapping is a valid question whose
	// answer is empty.
	spec := exampleSpec(t)
	spec.Onto.DeclareClass(exNS + "Ghost")
	e, err := NewEngine(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x WHERE { ?x a :Ghost }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 {
		t.Fatalf("got %d rows", ans.Len())
	}
}

func TestLimitOffsetThroughEngine(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.Query(`SELECT ?x WHERE { ?x a :Employee } ORDER BY ?x`)
	if err != nil {
		t.Fatal(err)
	}
	page, err := e.Query(`SELECT ?x WHERE { ?x a :Employee } ORDER BY ?x LIMIT 1 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if page.Len() != 1 || all.Len() < 2 {
		t.Fatalf("paging wrong: all=%d page=%d", all.Len(), page.Len())
	}
	if page.Rows[0][0] != all.Rows[1][0] {
		t.Fatalf("offset row mismatch: %v vs %v", page.Rows[0][0], all.Rows[1][0])
	}
}

func TestAggregateAgreementWithStore(t *testing.T) {
	spec := exampleSpec(t)
	e, err := NewEngine(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStoreEngine(spec, StoreOptions{Reasoning: true})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT (COUNT(?x) AS ?n) WHERE { ?x a :Employee }`
	a1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := se.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Rows[0][0] != a2.Rows[0][0] {
		t.Fatalf("aggregate disagreement: %v vs %v", a1.Rows[0][0], a2.Rows[0][0])
	}
	if a1.Rows[0][0] != rdf.NewInteger(2) {
		t.Fatalf("count = %v, want 2", a1.Rows[0][0])
	}
}

func TestEngineWithEmptyDatabase(t *testing.T) {
	spec := exampleSpec(t)
	// fresh empty DB with the same schema
	empty := sqldb.NewDatabase("empty")
	for _, tab := range spec.DB.Tables() {
		if _, err := empty.CreateTable(tab.Def); err != nil {
			t.Fatal(err)
		}
	}
	spec.DB = empty
	e, err := NewEngine(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT ?x WHERE { ?x a :Person }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 0 {
		t.Fatalf("empty database produced %d rows", ans.Len())
	}
}

func TestDisjointnessEntailment(t *testing.T) {
	spec := exampleSpec(t)
	spec.Onto.AddDisjoint(owl.NamedConcept(exNS+"Employee"), owl.NamedConcept(exNS+"Branch"))
	// subclassing makes the entailed disjointness visible: a class below
	// both Manager ⊑ Employee and Branch can have no instances
	spec.Onto.AddSubClass(owl.NamedConcept(exNS+"Manager"), owl.NamedConcept(exNS+"Employee"))
	spec.Onto.DeclareClass(exNS + "BranchManager")
	spec.Onto.AddSubClass(owl.NamedConcept(exNS+"BranchManager"), owl.NamedConcept(exNS+"Manager"))
	spec.Onto.AddSubClass(owl.NamedConcept(exNS+"BranchManager"), owl.NamedConcept(exNS+"Branch"))
	if u := spec.Onto.UnsatisfiableClasses(); !slices.Contains(u, exNS+"BranchManager") {
		t.Fatalf("disjointness must propagate to subclasses: unsatisfiable classes %v", u)
	}
}
