package sqldb

import (
	"testing"
)

// FuzzParse drives the SQL parser (lexer, statement grammar, and the full
// expression grammar under it) with arbitrary input and exercises the
// downstream surfaces on every successfully parsed statement: the String
// rendering, a re-parse of that rendering (the parser must accept its own
// output), and the statement metrics the paper's query classification
// reads. None of it may panic, and the round trip must render identically
// — String is the canonical form, so parse(String(s)) must reproduce it.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT t.a, u.b FROM t JOIN u ON t.id = u.id WHERE t.a > 3",
		"SELECT a FROM t LEFT JOIN u ON t.id = u.id",
		"SELECT DISTINCT a, b FROM t ORDER BY a DESC, b LIMIT 10",
		"SELECT a FROM t WHERE a IN (1, 2, 3) AND b IS NOT NULL",
		"SELECT a FROM t WHERE name LIKE 'well%' OR NOT (x = 1)",
		"SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2",
		"SELECT a FROM t UNION SELECT b FROM u",
		"SELECT a FROM (SELECT a FROM t) s",
		"SELECT * FROM t",
		"SELECT a + b * -c FROM t WHERE x BETWEEN 1 AND 2",
		"SELECT 'it''s' FROM t",
		"SELECT a FROM t;",
		"",
		"SELECT",
		"SELECT FROM WHERE",
		"SELECT a FROM t WHERE (",
		"SELECT a FROM t ORDER BY",
		"'unterminated",
		"SELECT a FROM t -- comment",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		rendered := stmt.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of own rendering failed\ninput:    %q\nrendered: %q\nerror:    %v", src, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("rendering not a fixed point\ninput:  %q\nfirst:  %q\nsecond: %q", src, rendered, got)
		}
		_ = stmt.Metrics()
	})
}
