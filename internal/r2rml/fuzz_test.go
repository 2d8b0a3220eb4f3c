package r2rml

import (
	"regexp"
	"strings"
	"testing"

	"npdbench/internal/sqldb"
)

// FuzzParseTemplate drives the IRI/literal template parser with arbitrary
// placeholder syntax and exercises the downstream template algebra on
// every successfully parsed value: Skeleton/String reconstruction, Match
// against the template's own rendering, and the structural comparisons
// the unfolder's pruning relies on (DisjointWith). None of it may panic,
// and Match(t.String()) must not reject a template without
// placeholders adjacent to each other.
func FuzzParseTemplate(f *testing.F) {
	seeds := []string{
		"http://npd#wellbore/{id}",
		"http://npd#well/{quadrant}-{num}",
		"{id}",
		"{a}{b}",
		"plain-constant",
		"",
		"pre{col}post",
		"http://npd#x/{id}/y/{id}",
		"{unterminated",
		"}stray",
		"{}",
		"a{b}c{d}e{f}g",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tm, err := ParseTemplate(src)
		if err != nil {
			return
		}
		parts, cols := tm.Skeleton()
		if len(parts) != len(cols)+1 {
			t.Fatalf("skeleton shape: %d parts, %d cols", len(parts), len(cols))
		}
		rendered := tm.String()
		// A template must agree with itself structurally.
		if tm.DisjointWith(tm) {
			t.Fatalf("template %q disjoint with itself", rendered)
		}
		// Matching is exercised for totality; success depends on the
		// template's fixture structure, so only panics are failures.
		_, _ = tm.Match(rendered)
		_, _ = tm.Match(src)
		_, _ = tm.Match("")
	})
}

// FuzzTemplateDisjoint checks that DisjointUnder is sound: two random
// templates, with each placeholder's value class drawn from the class
// bits, are expanded with random values of those classes, and when the
// check says disjoint, the expansions must differ. It also checks the
// stronger claim behind it — no expansion of one template matches the
// other's class-level pattern (a regular expression built independently
// of the product walk) — and that typing only ever adds disjointness.
func FuzzTemplateDisjoint(f *testing.F) {
	const wb = "http://sws.ifi.uio.no/data/npd-v2/wellbore/"
	f.Add(wb+"{id}", wb+"{id}/core/{n}", uint16(0xffff), "12,3")
	f.Add(wb+"{id}", wb+"{id}/core/{n}", uint16(0xff00), "12/core/4,7")
	f.Add("p/{a}-{b}", "p/{a}_{b}", uint16(0xffff), "1,2-3")
	f.Add("p/{a}-{b}", "p/{a}_{b}", uint16(0), "1_2,3")
	f.Add("d/{day}", "d/{y}-{m}-{d}", uint16(0xffff), "20010102,2001,01,02")
	f.Add("v/{a}", "v/-{b}", uint16(0xffff), "-5,5")
	f.Add("x/{a}{b}", "x/{c}", uint16(0x0100), "ab,,c")
	f.Add("c", "c", uint16(0), "")
	f.Fuzz(func(t *testing.T, src1, src2 string, classBits uint16, raw string) {
		a, err1 := ParseTemplate(src1)
		b, err2 := ParseTemplate(src2)
		if err1 != nil || err2 != nil {
			return
		}
		ac := classesFromBits(a, uint8(classBits))
		bc := classesFromBits(b, uint8(classBits>>8))
		disjoint := a.DisjointUnder(ac, b, bc)
		if disjoint != b.DisjointUnder(bc, a, ac) {
			t.Fatalf("%q vs %q: DisjointUnder is not symmetric", src1, src2)
		}
		if a.DisjointWith(b) && !disjoint {
			t.Fatalf("%q vs %q: disjoint untyped but not typed", src1, src2)
		}
		if !disjoint {
			return
		}
		pieces := strings.Split(raw, ",")
		ea, okA := a.Expand(valuesOf(a, ac, pieces))
		eb, okB := b.Expand(valuesOf(b, bc, pieces[len(pieces)/2:]))
		if okA && okB && ea == eb {
			t.Fatalf("%q vs %q called disjoint, both expand to %q", src1, src2, ea)
		}
		if re := classPattern(b, bc); okA && re != nil && re.MatchString(ea) {
			t.Fatalf("%q vs %q called disjoint, %q expands from both", src1, src2, ea)
		}
		if re := classPattern(a, ac); okB && re != nil && re.MatchString(eb) {
			t.Fatalf("%q vs %q called disjoint, %q expands from both", src1, src2, eb)
		}
	})
}

// classesFromBits gives t's k-th placeholder class Digits when bit k%8 is
// set.
func classesFromBits(t *Template, bits uint8) ColumnClasses {
	cc := ColumnClasses{}
	for k, col := range t.Columns {
		if bits>>(k%8)&1 == 1 {
			cc[strings.ToLower(col)] = Digits
		}
	}
	return cc
}

// valuesOf draws one value per column from pieces, mapping every other
// byte of a Digits column's piece into [0-9-].
func valuesOf(t *Template, cc ColumnClasses, pieces []string) func(string) (sqldb.Value, bool) {
	vals := map[string]string{}
	for k, col := range t.Columns {
		v := pieces[k%len(pieces)]
		if cc.of(col) == Digits {
			d := []byte(v)
			for i, c := range d {
				if c != '-' && (c < '0' || c > '9') {
					d[i] = "0123456789-"[c%11]
				}
			}
			v = string(d)
		}
		vals[col] = v
	}
	return func(col string) (sqldb.Value, bool) {
		v, ok := vals[col]
		return sqldb.NewString(v), ok
	}
}

// classPattern is the regular language of t under cc; nil when the
// template's literals are not valid UTF-8.
func classPattern(t *Template, cc ColumnClasses) *regexp.Regexp {
	var sb strings.Builder
	sb.WriteString(`(?s)^`)
	for i, p := range t.parts {
		switch {
		case i%2 == 0:
			sb.WriteString(regexp.QuoteMeta(p))
		case cc.of(p) == Digits:
			sb.WriteString(`[0-9-]*`)
		default:
			sb.WriteString(`.*`)
		}
	}
	sb.WriteString(`$`)
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil
	}
	return re
}

// FuzzParseMapping drives the compact mapping-declaration parser.
func FuzzParseMapping(f *testing.F) {
	seeds := []string{
		`[PrefixDeclaration]
t: http://t/

[MappingDeclaration]
mappingId m1
target    t:emp/{id} a t:Employee ; t:name {name} .
source    SELECT id, name FROM emp
`,
		`[MappingDeclaration]
mappingId broken
target    t:emp/{id a t:Employee .
source    SELECT id FROM emp
`,
		"mappingId only",
		"",
		"[PrefixDeclaration]\nbad prefix line",
		// Regression: a subject token whose prefix expansion has a stray '}'
		// used to panic in MustParseTemplate instead of returning an error.
		"[PrefixDeclaration]\nt: 0\n[MappingDeclaration]\nmappingId \ntarget t:}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mp, err := ParseMapping(src)
		if err != nil {
			return
		}
		for _, m := range mp.Maps {
			_ = m.SourceDescription()
		}
	})
}
