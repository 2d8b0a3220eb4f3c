package sparql

import (
	"errors"
	"testing"

	"npdbench/internal/rdf"
	"npdbench/internal/triplestore"
)

// These tests pin down the SPARQL error/unbound semantics of the expression
// evaluator: type errors must eliminate solutions in FILTER context (never
// panic, never abort the whole query), logical operators must absorb errors
// per the three-valued truth tables, and OPTIONAL-scoped variables must be
// safe to reference in filters whether or not the optional part matched.

func v(name string) Expr            { return &VarExpr{Name: name} }
func lit(s string) Expr             { return &TermExpr{Term: rdf.NewLiteral(s)} }
func num(n int64) Expr              { return &TermExpr{Term: rdf.NewInteger(n)} }
func iriExpr(s string) Expr         { return &TermExpr{Term: rdf.NewIRI(s)} }
func bin(op string, l, r Expr) Expr { return &BinExpr{Op: op, L: l, R: r} }

// bindingOf builds the evaluator's view of one solution from a map.
func bindingOf(m map[string]rdf.Term) Binding {
	ix := NewVarIndex()
	row := make([]rdf.Term, 0, len(m))
	for name, t := range m {
		ix.add(name)
		row = append(row, t)
	}
	return Binding{Vars: ix, Row: row}
}

// evalErr reports whether evaluating e under b yields a type error.
func evalErr(t *testing.T, e Expr, b Binding) bool {
	t.Helper()
	_, err := EvalExpr(e, b)
	if err != nil && !errors.Is(err, errTypeError) {
		t.Fatalf("EvalExpr(%s): unexpected non-type error %v", e, err)
	}
	return err != nil
}

func TestEvalUnboundVariableIsTypeError(t *testing.T) {
	b := bindingOf(map[string]rdf.Term{"x": rdf.NewInteger(1)})
	if !evalErr(t, v("missing"), b) {
		t.Fatal("unbound variable should raise a type error")
	}
	// ...and in FILTER context the solution is eliminated, not kept.
	if FilterKeeps(bin(">", v("missing"), num(0)), b) {
		t.Fatal("filter over an unbound variable must drop the solution")
	}
}

func TestEvalCrossTypeComparison(t *testing.T) {
	b := bindingOf(map[string]rdf.Term{
		"i": rdf.NewIRI("http://x/a"),
		"n": rdf.NewInteger(3),
		"s": rdf.NewLiteral("abc"),
	})
	// Ordering an IRI against a number is a type error, eliminating the row.
	if FilterKeeps(bin("<", v("i"), v("n")), b) {
		t.Fatal("IRI < number must not keep the solution")
	}
	if !evalErr(t, bin("<", v("i"), v("n")), b) {
		t.Fatal("IRI < number should be a type error, not a value")
	}
	// Equality falls back to term identity for incomparable kinds.
	got, err := EvalExpr(bin("=", v("i"), iriExpr("http://x/a")), b)
	if err != nil || got.Value != "true" {
		t.Fatalf("IRI = IRI identity: got %v, %v", got, err)
	}
	got, err = EvalExpr(bin("!=", v("i"), v("s")), b)
	if err != nil || got.Value != "true" {
		t.Fatalf("IRI != string identity: got %v, %v", got, err)
	}
	// Ordering a plain string against a number is likewise a type error.
	if FilterKeeps(bin(">=", v("s"), v("n")), b) {
		t.Fatal("string >= number must not keep the solution")
	}
}

func TestEvalArithmeticTypeErrors(t *testing.T) {
	b := bindingOf(map[string]rdf.Term{"s": rdf.NewLiteral("abc"), "n": rdf.NewInteger(4)})
	if !evalErr(t, bin("+", v("s"), v("n")), b) {
		t.Fatal("string + number should be a type error")
	}
	if !evalErr(t, bin("/", v("n"), num(0)), b) {
		t.Fatal("division by zero should be a type error")
	}
	if FilterKeeps(bin(">", bin("/", v("n"), num(0)), num(1)), b) {
		t.Fatal("filter over a divide-by-zero must drop the solution")
	}
}

// The SPARQL three-valued truth tables: && and || recover from an errored
// operand when the other operand already determines the result.
func TestEvalLogicalErrorAbsorption(t *testing.T) {
	b := bindingOf(map[string]rdf.Term{"n": rdf.NewInteger(1)})
	errExpr := bin(">", v("unbound"), num(0)) // always a type error
	trueExpr := bin("=", v("n"), num(1))
	falseExpr := bin("=", v("n"), num(2))

	cases := []struct {
		name string
		e    Expr
		want string // "true", "false", or "error"
	}{
		{"err && false", bin("&&", errExpr, falseExpr), "false"},
		{"false && err", bin("&&", falseExpr, errExpr), "false"},
		{"err && true", bin("&&", errExpr, trueExpr), "error"},
		{"true && err", bin("&&", trueExpr, errExpr), "error"},
		{"err || true", bin("||", errExpr, trueExpr), "true"},
		{"true || err", bin("||", trueExpr, errExpr), "true"},
		{"err || false", bin("||", errExpr, falseExpr), "error"},
		{"false || err", bin("||", falseExpr, errExpr), "error"},
	}
	for _, tc := range cases {
		got, err := EvalExpr(tc.e, b)
		switch tc.want {
		case "error":
			if err == nil {
				t.Errorf("%s: want type error, got %v", tc.name, got)
			}
			if FilterKeeps(tc.e, b) {
				t.Errorf("%s: errored filter must drop the solution", tc.name)
			}
		default:
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			} else if got.Value != tc.want {
				t.Errorf("%s: got %s, want %s", tc.name, got.Value, tc.want)
			}
		}
	}
}

func TestEvalNegationPropagatesErrors(t *testing.T) {
	b := bindingOf(map[string]rdf.Term{})
	e := &NotExpr{E: bin(">", v("unbound"), num(0))}
	if !evalErr(t, e, b) {
		t.Fatal("!(error) should remain an error, not become true")
	}
	if FilterKeeps(e, b) {
		t.Fatal("!(error) in a filter must drop the solution")
	}
	// Negating a non-boolean without a sensible EBV is also an error.
	e = &NotExpr{E: iriExpr("http://x/a")}
	if !evalErr(t, e, b) {
		t.Fatal("!(IRI) should be a type error")
	}
}

func TestEvalEffectiveBooleanValue(t *testing.T) {
	b := bindingOf(map[string]rdf.Term{
		"iri":     rdf.NewIRI("http://x/a"),
		"empty":   rdf.NewLiteral(""),
		"full":    rdf.NewLiteral("x"),
		"zero":    rdf.NewInteger(0),
		"badint":  rdf.NewTypedLiteral("notanumber", rdf.XSDInteger),
		"boolLit": rdf.NewTypedLiteral("true", rdf.XSDBoolean),
	})
	if FilterKeeps(v("iri"), b) {
		t.Fatal("an IRI has no effective boolean value")
	}
	if FilterKeeps(v("empty"), b) {
		t.Fatal("empty string EBV is false")
	}
	if !FilterKeeps(v("full"), b) {
		t.Fatal("non-empty string EBV is true")
	}
	if FilterKeeps(v("zero"), b) {
		t.Fatal("numeric zero EBV is false")
	}
	if FilterKeeps(v("badint"), b) {
		t.Fatal("malformed numeric literal EBV is a type error")
	}
	if !FilterKeeps(v("boolLit"), b) {
		t.Fatal("boolean true EBV is true")
	}
}

func TestEvalBoundBuiltin(t *testing.T) {
	b := bindingOf(map[string]rdf.Term{"x": rdf.NewInteger(1)})
	keep := &CallExpr{Name: "BOUND", Args: []Expr{v("x")}}
	drop := &CallExpr{Name: "BOUND", Args: []Expr{v("y")}}
	if !FilterKeeps(keep, b) {
		t.Fatal("BOUND(?x) should keep a bound solution")
	}
	if FilterKeeps(drop, b) {
		t.Fatal("BOUND(?y) should drop an unbound solution")
	}
	if !FilterKeeps(&NotExpr{E: drop}, b) {
		t.Fatal("!BOUND(?y) should keep an unbound solution")
	}
}

// TestOptionalScopedFilter runs a full query over a triple store: a FILTER
// that references a variable bound only inside OPTIONAL must drop the rows
// where the optional part did not match (unbound => type error => drop),
// without panicking and without disturbing matched rows.
func TestOptionalScopedFilter(t *testing.T) {
	ns := "http://t/"
	st := triplestore.New()
	wellbore := rdf.NewIRI(ns + "Wellbore")
	year := rdf.NewIRI(ns + "year")
	rdfType := rdf.NewIRI(rdf.RDFType)
	w1 := rdf.NewIRI(ns + "w1")
	w2 := rdf.NewIRI(ns + "w2")
	w3 := rdf.NewIRI(ns + "w3")
	st.Add(rdf.Triple{S: w1, P: rdfType, O: wellbore})
	st.Add(rdf.Triple{S: w2, P: rdfType, O: wellbore})
	st.Add(rdf.Triple{S: w3, P: rdfType, O: wellbore})
	st.Add(rdf.Triple{S: w1, P: year, O: rdf.NewInteger(1995)})
	st.Add(rdf.Triple{S: w2, P: year, O: rdf.NewInteger(2010)})
	// w3 has no year: the optional arm leaves ?y unbound.

	q, err := Parse(`SELECT ?w ?y WHERE {
		?w a <http://t/Wellbore>
		OPTIONAL { ?w <http://t/year> ?y }
		FILTER (?y >= 2000)
	}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Evaluate(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 {
		t.Fatalf("want exactly w2 to survive the filter, got %d rows:\n%s", rs.Len(), rs)
	}
	if got := rs.Rows[0][0].Value; got != ns+"w2" {
		t.Fatalf("surviving row is %s, want %sw2", got, ns)
	}

	// Without the filter all three wellbores appear, w3 with ?y unbound.
	q2, err := Parse(`SELECT ?w ?y WHERE {
		?w a <http://t/Wellbore>
		OPTIONAL { ?w <http://t/year> ?y }
	}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := Evaluate(q2, st)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Len() != 3 {
		t.Fatalf("want 3 rows without the filter, got %d:\n%s", rs2.Len(), rs2)
	}
	unbound := 0
	for _, row := range rs2.Rows {
		if row[1].IsZero() {
			unbound++
		}
	}
	if unbound != 1 {
		t.Fatalf("want exactly one row with unbound ?y, got %d", unbound)
	}

	// BOUND lets a filter keep exactly the rows where the optional missed.
	q3, err := Parse(`SELECT ?w WHERE {
		?w a <http://t/Wellbore>
		OPTIONAL { ?w <http://t/year> ?y }
		FILTER (!BOUND(?y))
	}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs3, err := Evaluate(q3, st)
	if err != nil {
		t.Fatal(err)
	}
	if rs3.Len() != 1 || rs3.Rows[0][0].Value != ns+"w3" {
		t.Fatalf("want only w3 via !BOUND, got:\n%s", rs3)
	}
}

// TestOptionalFilterSeesLeftSide pins SPARQL 1.1 §18.2.2: a FILTER inside
// OPTIONAL is the left join's condition, evaluated on the merged solution,
// so it may compare a variable of the optional part with one bound only
// on the left. Filtering the right side alone leaves ?m unbound there, a
// type error that drops every right row.
func TestOptionalFilterSeesLeftSide(t *testing.T) {
	ns := "http://t/"
	st := triplestore.New()
	w1, w2 := rdf.NewIRI(ns+"w1"), rdf.NewIRI(ns+"w2")
	minYear, year := rdf.NewIRI(ns+"min"), rdf.NewIRI(ns+"year")
	st.Add(rdf.Triple{S: w1, P: minYear, O: rdf.NewInteger(2000)})
	st.Add(rdf.Triple{S: w1, P: year, O: rdf.NewInteger(1995)})
	st.Add(rdf.Triple{S: w1, P: year, O: rdf.NewInteger(2010)})
	st.Add(rdf.Triple{S: w2, P: minYear, O: rdf.NewInteger(2020)})
	st.Add(rdf.Triple{S: w2, P: year, O: rdf.NewInteger(2010)})

	q, err := Parse(`SELECT ?w ?y WHERE {
		?w <http://t/min> ?m
		OPTIONAL { ?w <http://t/year> ?y FILTER(?y >= ?m) }
	} ORDER BY ?w`, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := q.Pattern.(*Optional)
	if !ok || opt.Cond == nil {
		t.Fatalf("OPTIONAL's FILTER must become its condition, got %s", q.Pattern)
	}
	rs, err := Evaluate(q, st)
	if err != nil {
		t.Fatal(err)
	}
	// w1 keeps only its 2010 year; no year of w2 reaches 2020, so w2 stays
	// unextended.
	want := "w\ty\n<http://t/w1>\t\"2010\"^^<" + rdf.XSDInteger + ">\n<http://t/w2>\t_\n"
	if got := rs.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}

	// A FILTER in a group nested inside the OPTIONAL filters that group
	// alone: ?m is unbound there, so nothing extends either wellbore.
	q2, err := Parse(`SELECT ?w ?y WHERE {
		?w <http://t/min> ?m
		OPTIONAL { { ?w <http://t/year> ?y FILTER(?y >= ?m) } }
	} ORDER BY ?w`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := Evaluate(q2, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs2.String(); got != "w\ty\n<http://t/w1>\t_\n<http://t/w2>\t_\n" {
		t.Fatalf("nested group filter: got:\n%s", got)
	}
}

// TestEvalCallArity: a built-in called with the wrong number of arguments
// is an evaluation error that drops the solution, never an index panic.
func TestEvalCallArity(t *testing.T) {
	b := bindingOf(map[string]rdf.Term{"x": rdf.NewLiteral("a")})
	for _, c := range []*CallExpr{
		{Name: "LANG"},
		{Name: "DATATYPE"},
		{Name: "STR", Args: []Expr{v("x"), v("x")}},
		{Name: "REGEX", Args: []Expr{v("x")}},
	} {
		if _, err := EvalExpr(c, b); err == nil {
			t.Errorf("%s with %d arguments: no error", c.Name, len(c.Args))
		}
		if FilterKeeps(c, b) {
			t.Errorf("%s with %d arguments kept the solution", c.Name, len(c.Args))
		}
	}
}
