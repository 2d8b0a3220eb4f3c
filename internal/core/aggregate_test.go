package core

import (
	"strings"
	"testing"

	"npdbench/internal/sparql"
)

// answerWithoutPushdown evaluates the query through the row-level
// (in-memory) aggregation path, bypassing tryAggregatePushdown.
func answerWithoutPushdown(t *testing.T, e *Engine, src string) *sparql.ResultSet {
	t.Helper()
	q, err := e.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	qc := &queryCtx{st: &PhaseStats{}, vars: q.Index(q.Pattern)}
	rows, err := e.evalPattern(q.Pattern, qc)
	if err != nil {
		t.Fatal(err)
	}
	return sparql.Finalize(q, qc.vars, rows)
}

func canonicalRS(rs *sparql.ResultSet) string {
	lines := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		parts := make([]string, len(row))
		for j, term := range row {
			parts[j] = term.String()
		}
		lines[i] = strings.Join(parts, "\t")
	}
	sortStrings(lines)
	return strings.Join(lines, "\n")
}

func TestAggregatePushdownMatchesInMemory(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		src  string
		push bool // expected to take the SQL pushdown path
	}{
		{`SELECT (COUNT(?x) AS ?n) WHERE { ?x a :Employee }`, true},
		{`SELECT (COUNT(*) AS ?n) WHERE { ?x :SellsProduct ?p }`, true},
		{`SELECT ?x (COUNT(?p) AS ?n) WHERE { ?x :SellsProduct ?p } GROUP BY ?x`, true},
		{`SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x :SellsProduct ?p }`, true},
		// MIN/MAX over an IRI-valued variable must NOT push (term kind
		// would be lost); the fallback still answers correctly.
		{`SELECT ?x (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) WHERE { ?x :SellsProduct ?p } GROUP BY ?x`, false},
		// MIN/MAX over a literal-valued variable pushes.
		{`SELECT (MIN(?n) AS ?lo) WHERE { ?x :name ?n }`, true},
		{`SELECT ?n (COUNT(?p) AS ?c) WHERE { ?x :name ?n . ?x :SellsProduct ?p . FILTER(?n != "Zed") } GROUP BY ?n`, true},
	}
	for _, c := range queries {
		ans, err := e.Query(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		want := answerWithoutPushdown(t, e, c.src)
		if canonicalRS(ans.ResultSet) != canonicalRS(want) {
			t.Fatalf("pushdown disagrees on %s:\npushed:\n%s\nin-memory:\n%s",
				c.src, ans.ResultSet, want)
		}
		pushed := strings.Contains(ans.Stats.UnfoldedSQL, "GROUP BY") ||
			strings.Contains(ans.Stats.UnfoldedSQL, "COUNT") ||
			strings.Contains(ans.Stats.UnfoldedSQL, "MIN")
		if pushed != c.push {
			t.Fatalf("pushdown = %v, want %v for %s\nSQL: %s", pushed, c.push, c.src, ans.Stats.UnfoldedSQL)
		}
	}
}

func TestAggregateFallbackForHaving(t *testing.T) {
	e, err := NewEngine(exampleSpec(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// HAVING is outside the pushable fragment — must still answer.
	ans, err := e.Query(`SELECT ?x (COUNT(?p) AS ?n) WHERE { ?x :SellsProduct ?p } GROUP BY ?x HAVING(COUNT(?p) > 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 2 {
		t.Fatalf("having fallback rows = %d", ans.Len())
	}
	if strings.Contains(ans.Stats.UnfoldedSQL, "GROUP BY") {
		t.Fatal("HAVING queries must not take the pushdown path")
	}
}

func TestAggregateCountEmptyIsZero(t *testing.T) {
	spec := exampleSpec(t)
	spec.Onto.DeclareClass(exNS + "Ghost")
	e, err := NewEngine(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.Query(`SELECT (COUNT(?x) AS ?n) WHERE { ?x a :Ghost }`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || ans.Rows[0][0].Value != "0" {
		t.Fatalf("COUNT over empty must be one row of 0, got %v", ans.Rows)
	}
}
