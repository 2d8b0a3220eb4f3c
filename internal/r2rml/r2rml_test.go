package r2rml

import (
	"strings"
	"testing"
	"testing/quick"

	"npdbench/internal/rdf"
	"npdbench/internal/sqldb"
)

func TestTemplateParseAndString(t *testing.T) {
	tmpl, err := ParseTemplate("http://x/{a}/y/{b}")
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl.Columns) != 2 || tmpl.Columns[0] != "a" || tmpl.Columns[1] != "b" {
		t.Fatalf("columns %v", tmpl.Columns)
	}
	if tmpl.String() != "http://x/{a}/y/{b}" {
		t.Fatalf("round trip: %s", tmpl)
	}
	for _, bad := range []string{"http://x/{", "a}b", "{}", "{a}{"} {
		if _, err := ParseTemplate(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestTemplateExpandAndMatchInverse(t *testing.T) {
	tmpl := MustParseTemplate("http://x/{a}/y/{b}")
	vals := map[string]sqldb.Value{
		"a": sqldb.NewInt(42),
		"b": sqldb.NewString("hello"),
	}
	get := func(col string) (sqldb.Value, bool) { v, ok := vals[col]; return v, ok }
	s, ok := tmpl.Expand(get)
	if !ok || s != "http://x/42/y/hello" {
		t.Fatalf("expand: %q %v", s, ok)
	}
	back, ok := tmpl.Match(s)
	if !ok || back["a"] != "42" || back["b"] != "hello" {
		t.Fatalf("match: %v %v", back, ok)
	}
	if _, ok := tmpl.Match("http://other/42/y/z"); ok {
		t.Fatal("wrong prefix must not match")
	}
	if _, ok := tmpl.Match("http://x/42/z/zz"); ok {
		t.Fatal("wrong separator must not match")
	}
}

func TestTemplateMatchProperty(t *testing.T) {
	tmpl := MustParseTemplate("http://npd/w/{id}/c/{n}")
	f := func(id uint32, n uint16) bool {
		vals := map[string]sqldb.Value{
			"id": sqldb.NewInt(int64(id)),
			"n":  sqldb.NewInt(int64(n)),
		}
		s, ok := tmpl.Expand(func(c string) (sqldb.Value, bool) { v, o := vals[c]; return v, o })
		if !ok {
			return false
		}
		back, ok := tmpl.Match(s)
		return ok && back["id"] == vals["id"].String() && back["n"] == vals["n"].String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateIRISafety(t *testing.T) {
	tmpl := MustParseTemplate("http://x/{a}")
	s, ok := tmpl.Expand(func(string) (sqldb.Value, bool) {
		return sqldb.NewString("has space<>"), true
	})
	if !ok {
		t.Fatal("expand failed")
	}
	if strings.ContainsAny(s, " <>") {
		t.Fatalf("unsafe IRI: %q", s)
	}
	back, ok := tmpl.Match(s)
	if !ok || back["a"] != "has space<>" {
		t.Fatalf("percent-decoding failed: %v", back)
	}
}

func TestTemplateNullSuppression(t *testing.T) {
	tmpl := MustParseTemplate("http://x/{a}")
	if _, ok := tmpl.Expand(func(string) (sqldb.Value, bool) { return sqldb.Null, true }); ok {
		t.Fatal("NULL must suppress term generation")
	}
}

func TestDisjointWith(t *testing.T) {
	const wb = "http://sws.ifi.uio.no/data/npd-v2/wellbore/"
	digits := func(cols ...string) ColumnClasses {
		cc := ColumnClasses{}
		for _, c := range cols {
			cc[c] = Digits
		}
		return cc
	}
	cases := []struct {
		name     string
		t, u     string
		tc, uc   ColumnClasses
		disjoint bool
	}{
		{"same prefix, renamed column", "http://x/emp/{id}", "http://x/emp/{eid}", nil, nil, false},
		{"diverging prefixes", "http://x/emp/{id}", "http://x/prod/{id}", nil, nil, true},
		{"diverging suffixes", "http://t/w/{a}/{b}/tail", "http://t/w/{a}/{b}/liat", nil, nil, true},
		{"wellbore vs core, INT id", wb + "{id}", wb + "{id}/core/{n}", digits("id"), digits("id", "n"), true},
		{"wellbore vs core, text id", wb + "{id}", wb + "{id}/core/{n}", nil, digits("id", "n"), false},
		{"interior separators, Any", "p/{a}-{b}", "p/{a}_{b}", nil, nil, false},
		{"interior separators, Digits", "p/{a}-{b}", "p/{a}_{b}", digits("a", "b"), digits("a", "b"), true},
		{"interior separators, one side Digits", "p/{a}-{b}", "p/{a}_{b}", digits("a", "b"), nil, true},
		{"DATE absorbs its own dashes", "d/{day}", "d/{y}-{m}-{dd}", digits("day"), digits("y", "m", "dd"), false},
		{"DATE cannot absorb a letter", "d/{day}", "d/{y}T{h}", digits("day"), digits("y", "h"), true},
		{"negative INT", "v/{a}", "v/-{b}", digits("a"), digits("b"), false},
		{"INT has no plus sign", "v/{a}", "v/+{b}", digits("a"), digits("b"), true},
		{"identical skeletons, Any", "w/{id}/c/{n}", "w/{id}/c/{n}", nil, nil, false},
		{"identical skeletons, Digits", "w/{id}/c/{n}", "w/{id}/c/{n}", digits("id", "n"), digits("id", "n"), false},
		{"identical skeletons, mixed classes", "w/{id}/c/{n}", "w/{k}/c/{m}", digits("id", "n"), nil, false},
		{"adjacent placeholders", "x/{a}{b}", "x/{c}", nil, nil, false},
		{"equal constants", "c", "c", nil, nil, false},
		{"different constants", "c", "d", nil, nil, true},
		{"constant inside a Digits template", "w/-12", "w/{id}", nil, digits("id"), false},
		{"constant outside a Digits template", "w/ab", "w/{id}", nil, digits("id"), true},
		{"Digits admits the empty string", "w/", "w/{id}", nil, digits("id"), false},
		{"column lookup ignores case", "w/{ID}", "w/{id}/x", digits("id"), digits("id"), true},
	}
	for _, c := range cases {
		a, b := MustParseTemplate(c.t), MustParseTemplate(c.u)
		if got := a.DisjointUnder(c.tc, b, c.uc); got != c.disjoint {
			t.Errorf("%s: %s vs %s disjoint = %v, want %v", c.name, c.t, c.u, got, c.disjoint)
		}
		if got := b.DisjointUnder(c.uc, a, c.tc); got != c.disjoint {
			t.Errorf("%s (swapped): %s vs %s disjoint = %v, want %v", c.name, c.u, c.t, got, c.disjoint)
		}
		if c.tc == nil && c.uc == nil && a.DisjointWith(b) != c.disjoint {
			t.Errorf("%s: DisjointWith disagrees with the all-Any DisjointUnder", c.name)
		}
	}
}

func TestDisjointUnderDoesNotAllocate(t *testing.T) {
	a := MustParseTemplate("http://sws.ifi.uio.no/data/npd-v2/wellbore/{wlbNpdidWellbore}")
	b := MustParseTemplate("http://sws.ifi.uio.no/data/npd-v2/wellbore/{wlbNpdidWellbore}/core/{wlbCoreNumber}")
	cc := ColumnClasses{"wlbnpdidwellbore": Digits, "wlbcorenumber": Digits}
	if !a.DisjointUnder(cc, b, cc) {
		t.Fatal("INT wellbore ids never contain /core/")
	}
	if n := testing.AllocsPerRun(100, func() { a.DisjointUnder(cc, b, cc) }); n != 0 {
		t.Fatalf("DisjointUnder allocates %v times per call", n)
	}
}

func TestParseMappingDocument(t *testing.T) {
	mp, err := ParseMapping(`
[PrefixDeclaration]
ex:  http://example.org/
npdv: http://vocab/

# a comment
[MappingDeclaration]
mappingId m1
target    ex:w/{id} a npdv:Wellbore ; npdv:name {name} ; npdv:depth {depth}^^xsd:double .
source    SELECT id, name, depth FROM wellbore

mappingId m2
target    ex:w/{id} npdv:inLicence ex:lic/{lic} .
source    SELECT id, lic FROM wellbore WHERE lic IS NOT NULL
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Maps) != 2 {
		t.Fatalf("maps = %d", len(mp.Maps))
	}
	m1 := mp.Maps[0]
	if len(m1.Classes) != 1 || m1.Classes[0] != "http://vocab/Wellbore" {
		t.Fatalf("classes %v", m1.Classes)
	}
	if len(m1.POs) != 2 {
		t.Fatalf("POs %v", m1.POs)
	}
	if m1.POs[1].Object.Datatype != rdf.XSDNS+"double" {
		t.Fatalf("datatype %q", m1.POs[1].Object.Datatype)
	}
	m2 := mp.Maps[1]
	if m2.POs[0].Object.Kind != IRITemplate {
		t.Fatalf("object kind %v", m2.POs[0].Object.Kind)
	}
	if _, err := m2.LogicalSQL(); err != nil {
		t.Fatal(err)
	}
}

func TestParseMappingErrors(t *testing.T) {
	bad := []string{
		"junk outside sections",
		"[MappingDeclaration]\nmappingId m\nsource SELECT 1",             // no target
		"[MappingDeclaration]\nmappingId m\ntarget ex:x a ex:C .",        // unknown prefix
		"[MappingDeclaration]\ntarget ex:x a ex:C .\nsource SELECT 1",    // target before id
		"[PrefixDeclaration]\nbroken line without colon http://x/",       // bad prefix
		"[MappingDeclaration]\nmappingId m\ntarget {c} a :C .\nsource S", // literal subject
	}
	for _, src := range bad {
		if _, err := ParseMapping(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestMaterialize(t *testing.T) {
	db := sqldb.NewDatabase("t")
	if _, err := db.CreateTable(&sqldb.TableDef{
		Name: "wellbore",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt, NotNull: true},
			{Name: "name", Type: sqldb.TText},
		},
		PrimaryKey: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("wellbore", sqldb.Row{sqldb.NewInt(1), sqldb.NewString("W1")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("wellbore", sqldb.Row{sqldb.NewInt(2), sqldb.Null}); err != nil {
		t.Fatal(err)
	}
	mp := MustParseMapping(`
[PrefixDeclaration]
ex: http://e/
v:  http://v/

[MappingDeclaration]
mappingId m
target    ex:w/{id} a v:W ; v:name {name} .
source    SELECT id, name FROM wellbore
`)
	triples, err := mp.MaterializeTriples(db)
	if err != nil {
		t.Fatal(err)
	}
	// 2 type triples + 1 name triple (row 2's name is NULL -> suppressed).
	if len(triples) != 3 {
		t.Fatalf("triples = %d: %v", len(triples), triples)
	}
	counts, err := mp.VirtualCounts(db)
	if err != nil {
		t.Fatal(err)
	}
	if counts["http://v/W"] != 2 || counts["http://v/name"] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

func TestMappingStats(t *testing.T) {
	mp := MustParseMapping(`
[PrefixDeclaration]
v: http://v/

[MappingDeclaration]
mappingId m1
target    v:x/{a} a v:C .
source    SELECT a FROM t1 UNION SELECT a FROM t2

mappingId m2
target    v:x/{a} v:p {b} .
source    SELECT t1.a AS a, t2.b AS b FROM t1 JOIN t2 ON t1.a = t2.a
`)
	st := mp.Stats()
	if st.TriplesMaps != 2 || st.Assertions != 2 || st.MappedTerms != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.AvgUnionsPerSQL < 1.4 || st.AvgJoinsPerSPJ <= 0 {
		t.Fatalf("SQL complexity stats %+v", st)
	}
}
