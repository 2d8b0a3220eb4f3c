package sparql

import (
	"strings"
	"testing"

	"npdbench/internal/rdf"
)

const ns = "http://test/"

func pm() rdf.PrefixMap {
	m := rdf.StandardPrefixes()
	m[""] = ns
	m["t"] = ns
	return m
}

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse(`SELECT ?x ?y WHERE { ?x t:knows ?y . }`, pm())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != 2 || q.Items[0].Var != "x" {
		t.Fatalf("items %v", q.Items)
	}
	bgp := q.Pattern.(*BGP)
	if len(bgp.Triples) != 1 {
		t.Fatalf("triples %v", bgp.Triples)
	}
	if bgp.Triples[0].P.Term.Value != ns+"knows" {
		t.Fatalf("predicate %v", bgp.Triples[0].P)
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x a t:Person ; t:name ?n , ?m . }`, pm())
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Pattern.(*BGP)
	if len(bgp.Triples) != 3 {
		t.Fatalf("got %d triples, want 3 (type + two names)", len(bgp.Triples))
	}
	if bgp.Triples[0].P.Term.Value != rdf.RDFType {
		t.Fatalf("'a' must expand to rdf:type")
	}
}

func TestParseBlankNodePropertyList(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x t:knows [ a t:Person ; t:name ?n ] . }`, pm())
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Pattern.(*BGP)
	if len(bgp.Triples) != 3 {
		t.Fatalf("got %d triples, want 3", len(bgp.Triples))
	}
	// the generated blank variable must connect the outer triple with the
	// inner property list
	var bn TermOrVar
	for _, tp := range bgp.Triples {
		if !tp.P.IsVar() && tp.P.Term.Value == ns+"knows" {
			bn = tp.O
		}
	}
	if !bn.IsVar() || !strings.HasPrefix(bn.Var, "_bn") {
		t.Fatalf("object should be a fresh blank variable: %v", bn)
	}
	for _, tp := range bgp.Triples {
		for _, v := range tp.Vars() {
			if v == bn.Var {
				goto connected
			}
		}
	}
	t.Fatal("blank variable does not connect the patterns")
connected:
}

func TestParseFilterOptionalUnion(t *testing.T) {
	q, err := Parse(`
SELECT DISTINCT ?x WHERE {
  { ?x a t:Cat } UNION { ?x a t:Dog }
  OPTIONAL { ?x t:name ?n }
  FILTER(?x != t:garfield)
} ORDER BY ?x LIMIT 5 OFFSET 2`, pm())
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct || q.Limit != 5 || q.Offset != 2 || len(q.OrderBy) != 1 {
		t.Fatalf("modifiers wrong: %+v", q)
	}
	f, ok := q.Pattern.(*Filter)
	if !ok {
		t.Fatalf("outermost should be Filter, got %T", q.Pattern)
	}
	if _, ok := f.Inner.(*Optional); !ok {
		t.Fatalf("inner should be Optional, got %T", f.Inner)
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse(`
SELECT ?d (COUNT(DISTINCT ?x) AS ?n) (AVG(?age) AS ?avg) WHERE {
  ?x t:dept ?d . ?x t:age ?age .
} GROUP BY ?d HAVING(COUNT(?x) > 2)`, pm())
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasAggregates() {
		t.Fatal("aggregates not detected")
	}
	agg, ok := q.Items[1].Expr.(*AggExpr)
	if !ok || agg.Name != "COUNT" || !agg.Distinct {
		t.Fatalf("item 1: %v", q.Items[1].Expr)
	}
	if q.Having == nil || len(q.GroupBy) != 1 {
		t.Fatal("HAVING/GROUP BY lost")
	}
}

func TestParseTypedLiterals(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x t:year "2008"^^xsd:integer ; t:label "hi"@en ; t:score 3.5 . }`, pm())
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Pattern.(*BGP)
	if bgp.Triples[0].O.Term.Datatype != rdf.XSDInteger {
		t.Fatalf("typed literal: %v", bgp.Triples[0].O)
	}
	if bgp.Triples[1].O.Term.Lang != "en" {
		t.Fatalf("lang literal: %v", bgp.Triples[1].O)
	}
	if bgp.Triples[2].O.Term.Datatype != rdf.XSDDecimal {
		t.Fatalf("decimal literal: %v", bgp.Triples[2].O)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT WHERE { ?x ?p ?y }`,
		`SELECT ?x WHERE { ?x t:p }`,
		`SELECT ?x WHERE { ?x t:p ?y`,
		`SELECT ?x WHERE { ?x unknown:p ?y }`,
		`SELECT ?x WHERE { ?x t:p ?y } LIMIT x`,
	}
	for _, src := range bad {
		if _, err := Parse(src, pm()); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// memSource is a tiny in-memory triple source for evaluator tests.
type memSource []rdf.Triple

func (m memSource) Match(s, p, o *rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	for _, t := range m {
		if s != nil && t.S != *s {
			continue
		}
		if p != nil && t.P != *p {
			continue
		}
		if o != nil && t.O != *o {
			continue
		}
		out = append(out, t)
	}
	return out
}

func iri(s string) rdf.Term { return rdf.NewIRI(ns + s) }

func testGraph() memSource {
	knows := iri("knows")
	name := iri("name")
	typ := rdf.NewIRI(rdf.RDFType)
	person := iri("Person")
	return memSource{
		{S: iri("alice"), P: typ, O: person},
		{S: iri("bob"), P: typ, O: person},
		{S: iri("carol"), P: typ, O: person},
		{S: iri("alice"), P: knows, O: iri("bob")},
		{S: iri("bob"), P: knows, O: iri("carol")},
		{S: iri("alice"), P: name, O: rdf.NewLiteral("Alice")},
		{S: iri("bob"), P: name, O: rdf.NewLiteral("Bob")},
		{S: iri("alice"), P: iri("age"), O: rdf.NewInteger(30)},
		{S: iri("bob"), P: iri("age"), O: rdf.NewInteger(25)},
		{S: iri("carol"), P: iri("age"), O: rdf.NewInteger(35)},
	}
}

func eval(t *testing.T, src string) *ResultSet {
	t.Helper()
	q, err := Parse(src, pm())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Evaluate(q, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestEvaluateBGPJoin(t *testing.T) {
	rs := eval(t, `SELECT ?a ?b WHERE { ?a t:knows ?b . ?b a t:Person }`)
	if rs.Len() != 2 {
		t.Fatalf("got %d rows:\n%s", rs.Len(), rs)
	}
}

func TestEvaluateFilter(t *testing.T) {
	rs := eval(t, `SELECT ?x WHERE { ?x t:age ?a . FILTER(?a > 28) }`)
	if rs.Len() != 2 {
		t.Fatalf("got %d rows:\n%s", rs.Len(), rs)
	}
}

func TestEvaluateFilterTypeErrorEliminates(t *testing.T) {
	// comparing a name (string) with a number is a type error -> dropped
	rs := eval(t, `SELECT ?x WHERE { ?x t:name ?n . FILTER(?n > 5) }`)
	if rs.Len() != 0 {
		t.Fatalf("type-error rows must be eliminated, got %d", rs.Len())
	}
}

func TestEvaluateOptional(t *testing.T) {
	rs := eval(t, `SELECT ?x ?n WHERE { ?x a t:Person OPTIONAL { ?x t:name ?n } } ORDER BY ?x`)
	if rs.Len() != 3 {
		t.Fatalf("got %d rows", rs.Len())
	}
	// carol has no name: unbound cell
	unbound := 0
	for _, row := range rs.Rows {
		if row[1].IsZero() {
			unbound++
		}
	}
	if unbound != 1 {
		t.Fatalf("expected one unbound name, got %d", unbound)
	}
}

func TestEvaluateUnion(t *testing.T) {
	rs := eval(t, `SELECT ?x WHERE { { ?x t:name "Alice" } UNION { ?x t:name "Bob" } }`)
	if rs.Len() != 2 {
		t.Fatalf("got %d rows", rs.Len())
	}
}

func TestEvaluateAggregates(t *testing.T) {
	rs := eval(t, `SELECT (COUNT(?x) AS ?n) (AVG(?a) AS ?avg) (MIN(?a) AS ?min) (MAX(?a) AS ?max) WHERE { ?x t:age ?a }`)
	if rs.Len() != 1 {
		t.Fatalf("got %d rows", rs.Len())
	}
	row := rs.Rows[0]
	if row[0].Value != "3" || row[1].Value != "30" || row[2].Value != "25" || row[3].Value != "35" {
		t.Fatalf("aggregate row: %v", row)
	}
}

func TestEvaluateGroupBy(t *testing.T) {
	rs := eval(t, `SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x t:knows ?y } GROUP BY ?x`)
	if rs.Len() != 2 {
		t.Fatalf("got %d rows:\n%s", rs.Len(), rs)
	}
}

func TestEvaluateOrderAndSlice(t *testing.T) {
	rs := eval(t, `SELECT ?x ?a WHERE { ?x t:age ?a } ORDER BY DESC(?a) LIMIT 2`)
	if rs.Len() != 2 {
		t.Fatalf("got %d rows", rs.Len())
	}
	if rs.Rows[0][1].Value != "35" || rs.Rows[1][1].Value != "30" {
		t.Fatalf("order wrong:\n%s", rs)
	}
}

func TestEvaluateDistinct(t *testing.T) {
	rs := eval(t, `SELECT DISTINCT ?t WHERE { ?x a ?t }`)
	if rs.Len() != 1 {
		t.Fatalf("got %d rows", rs.Len())
	}
}

func TestComputeStats(t *testing.T) {
	q, err := Parse(`
SELECT ?x WHERE {
  ?x t:p ?y . ?y t:q ?z . ?a t:r ?b .
  OPTIONAL { ?x t:s ?w }
  FILTER(?z > 1)
}`, pm())
	if err != nil {
		t.Fatal(err)
	}
	st := q.ComputeStats()
	// 4 triple patterns in 2 variable-connected components -> 2 joins.
	if st.TriplePatterns != 4 || st.Joins != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Optionals != 1 || !st.HasFilter {
		t.Fatalf("stats %+v", st)
	}
}

func TestEffectiveBooleanValue(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want bool
		err  bool
	}{
		{rdf.NewTypedLiteral("true", rdf.XSDBoolean), true, false},
		{rdf.NewTypedLiteral("false", rdf.XSDBoolean), false, false},
		{rdf.NewLiteral(""), false, false},
		{rdf.NewLiteral("x"), true, false},
		{rdf.NewInteger(0), false, false},
		{rdf.NewInteger(7), true, false},
		{rdf.NewIRI(ns + "x"), false, true},
	}
	for _, c := range cases {
		got, err := ebv(c.term)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ebv(%v) = %v, %v", c.term, got, err)
		}
	}
}

func TestBindingHelpers(t *testing.T) {
	// Rows over one index of (x, y): a binds x, b binds x and y, c
	// binds x to another term.
	ix := NewVarIndex("x", "y")
	a := []rdf.Term{iri("alice"), {}}
	b := []rdf.Term{iri("alice"), iri("bob")}
	c := []rdf.Term{iri("carol"), {}}
	joined := Join([][]rdf.Term{a}, [][]rdf.Term{b, c})
	if len(joined) != 1 || joined[0][1] != iri("bob") {
		t.Fatalf("join: %v", joined)
	}
	if len(Join([][]rdf.Term{a}, [][]rdf.Term{c})) != 0 {
		t.Fatal("conflicting rows must not merge")
	}
	left := LeftJoin(ix, [][]rdf.Term{c}, [][]rdf.Term{b}, nil)
	if len(left) != 1 || !left[0][1].IsZero() {
		t.Fatalf("left join must keep unmatched left: %v", left)
	}
	if got := Dedupe([][]rdf.Term{a, b, {iri("alice"), {}}}, []int{0}); len(got) != 1 {
		t.Fatalf("dedupe on x: %v", got)
	}
}
