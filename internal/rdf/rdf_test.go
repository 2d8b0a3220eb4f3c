package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermStringNTriples(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewLiteral("hi"), `"hi"`},
		{NewTypedLiteral("5", XSDInteger), `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewLangLiteral("hei", "no"), `"hei"@no`},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("a\"b\n"), `"a\"b\n"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%v) = %s, want %s", c.term, got, c.want)
		}
	}
}

// TestLiteralStringAllocs pins the literal rendering that keys DISTINCT,
// joins and binding dedup: it must not rebuild its escaper per call.
func TestLiteralStringAllocs(t *testing.T) {
	for _, lit := range []Term{
		NewTypedLiteral("1999-04-02", XSDDate),
		NewLangLiteral("hei", "no"),
		NewLiteral("plain"),
	} {
		if n := testing.AllocsPerRun(100, func() { _ = lit.String() }); n > 2 {
			t.Errorf("%v.String() allocates %v times, want <= 2", lit, n)
		}
	}
}

func TestLocalName(t *testing.T) {
	if NewIRI("http://x/v#Frag").LocalName() != "Frag" {
		t.Fatal("fragment")
	}
	if NewIRI("http://x/path/leaf").LocalName() != "leaf" {
		t.Fatal("path")
	}
}

func TestPrefixMapExpandCompact(t *testing.T) {
	pm := StandardPrefixes()
	pm["npdv"] = "http://vocab/"
	iri, err := pm.Expand("npdv:Wellbore")
	if err != nil || iri != "http://vocab/Wellbore" {
		t.Fatalf("expand: %q %v", iri, err)
	}
	if _, err := pm.Expand("unknown:X"); err == nil {
		t.Fatal("unknown prefix must error")
	}
	if got, _ := pm.Expand("<http://raw/iri>"); got != "http://raw/iri" {
		t.Fatalf("angle-bracket passthrough: %q", got)
	}
	if got := pm.Compact("http://vocab/Wellbore"); got != "npdv:Wellbore" {
		t.Fatalf("compact: %q", got)
	}
	if got := pm.Compact("http://elsewhere/x"); got != "<http://elsewhere/x>" {
		t.Fatalf("compact fallback: %q", got)
	}
}

func TestCompareTermsTotalOrder(t *testing.T) {
	f := func(a, b string) bool {
		x, y := NewIRI(a), NewIRI(b)
		return CompareTerms(x, y) == -CompareTerms(y, x) &&
			(CompareTerms(x, y) == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// kinds are ordered IRI < blank < literal
	if CompareTerms(NewIRI("z"), NewLiteral("a")) >= 0 {
		t.Fatal("IRIs sort before literals")
	}
}

func TestSortTriplesDeterministic(t *testing.T) {
	ts := []Triple{
		{S: NewIRI("b"), P: NewIRI("p"), O: NewIRI("x")},
		{S: NewIRI("a"), P: NewIRI("q"), O: NewIRI("y")},
		{S: NewIRI("a"), P: NewIRI("p"), O: NewIRI("z")},
	}
	SortTriples(ts)
	if ts[0].S.Value != "a" || ts[0].P.Value != "p" || ts[2].S.Value != "b" {
		t.Fatalf("order %v", ts)
	}
	var sb strings.Builder
	for _, tr := range ts {
		sb.WriteString(tr.String())
		sb.WriteByte('\n')
	}
	if !strings.Contains(sb.String(), "<a> <p> <z> .") {
		t.Fatalf("serialization:\n%s", sb.String())
	}
}

func TestTermIsZero(t *testing.T) {
	var z Term
	if !z.IsZero() {
		t.Fatal("zero term")
	}
	if NewLiteral("").IsZero() {
		t.Fatal("empty literal is not the zero term")
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	triples := []Triple{
		{S: NewIRI("http://x/a"), P: NewIRI("http://x/p"), O: NewIRI("http://x/b")},
		{S: NewIRI("http://x/a"), P: NewIRI("http://x/name"), O: NewLiteral("Ann \"A\"\nB")},
		{S: NewBlank("n1"), P: NewIRI("http://x/v"), O: NewTypedLiteral("5", XSDInteger)},
		{S: NewIRI("http://x/c"), P: NewIRI("http://x/l"), O: NewLangLiteral("hei", "no")},
	}
	var buf strings.Builder
	if err := WriteNTriples(&buf, triples); err != nil {
		t.Fatal(err)
	}
	back, err := ParseNTriples(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("%v\ninput:\n%s", err, buf.String())
	}
	if len(back) != len(triples) {
		t.Fatalf("count %d != %d", len(back), len(triples))
	}
	for i := range triples {
		if back[i] != triples[i] {
			t.Fatalf("triple %d: %v != %v", i, back[i], triples[i])
		}
	}
}

func TestNTriplesSkipsCommentsAndErrors(t *testing.T) {
	src := "# comment\n\n<http://a> <http://p> \"x\" .\n"
	ts, err := ParseNTriples(strings.NewReader(src))
	if err != nil || len(ts) != 1 {
		t.Fatalf("%v %d", err, len(ts))
	}
	for _, bad := range []string{
		"<http://a> <http://p>",
		"<http://a> \"notpred\" <http://b> .",
		"<http://a> <http://p> \"unterminated .",
		"junk",
	} {
		if _, err := ParseNTriples(strings.NewReader(bad)); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}
