package server

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
)

// refJSON is the reference writer: encoding/json over one map per term,
// the bytes the hand-written writer must reproduce.
func refJSON(w io.Writer, rs *sparql.ResultSet) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"head":{"vars":`)
	vars, _ := json.Marshal(rs.Vars)
	bw.Write(vars)
	bw.WriteString(`},"results":{"bindings":[`)
	for i, row := range rs.Rows {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('{')
		first := true
		for j, t := range row {
			if t.IsZero() || j >= len(rs.Vars) {
				continue
			}
			if !first {
				bw.WriteByte(',')
			}
			first = false
			name, _ := json.Marshal(rs.Vars[j])
			bw.Write(name)
			bw.WriteByte(':')
			obj := map[string]string{"type": "literal", "value": t.Value}
			switch {
			case t.IsIRI():
				obj["type"] = "uri"
			case t.IsBlank():
				obj["type"] = "bnode"
			case t.Lang != "":
				obj["xml:lang"] = t.Lang
			case t.Datatype != "" && t.Datatype != rdf.XSDString:
				obj["datatype"] = t.Datatype
			}
			enc, _ := json.Marshal(obj)
			bw.Write(enc)
		}
		bw.WriteByte('}')
	}
	bw.WriteString("]}}\n")
	return bw.Flush()
}

// refTSVTerm is the reference TSV cell: a strings.Replacer over the
// lexical form.
func refTSVTerm(t rdf.Term) string {
	switch {
	case t.IsIRI():
		return "<" + t.Value + ">"
	case t.IsBlank():
		return "_:" + t.Value
	}
	s := `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\t", `\t`, "\n", `\n`, "\r", `\r`).Replace(t.Value) + `"`
	if t.Lang != "" {
		return s + "@" + t.Lang
	}
	if t.Datatype != "" && t.Datatype != rdf.XSDString {
		return s + "^^<" + t.Datatype + ">"
	}
	return s
}

// FuzzWriteJSON checks that the hand-written writers emit exactly the
// reference bytes for arbitrary variable names, values, language tags,
// datatypes and term kinds, including invalid UTF-8, control bytes,
// HTML-sensitive characters and U+2028/U+2029.
func FuzzWriteJSON(f *testing.F) {
	f.Add("v", "http://x/1", "", "", uint8(0))
	f.Add("name", "a\"b\\c\n\t<&>", "no", "", uint8(2))
	f.Add("x y", "4", "", rdf.XSDInteger, uint8(2))
	f.Add("é", "\xff\xfe\u2028\u2029\x7f\x00\x1f", "", "dt\"", uint8(1))
	f.Add("", "", "", rdf.XSDString, uint8(3))
	f.Fuzz(func(t *testing.T, name, value, lang, datatype string, kind uint8) {
		term := rdf.Term{Kind: rdf.TermKind(kind % 4), Value: value, Datatype: datatype, Lang: lang}
		rs := &sparql.ResultSet{
			Vars: []string{name, "o"},
			Rows: [][]rdf.Term{{term, rdf.NewLiteral(name)}, {{}, term}, {term}, {}},
		}
		var got, want strings.Builder
		if err := writeJSON(&got, rs); err != nil {
			t.Fatal(err)
		}
		refJSON(&want, rs)
		if got.String() != want.String() {
			t.Fatalf("JSON differs:\ngot  %q\nwant %q", got.String(), want.String())
		}
		if !json.Valid([]byte(got.String())) {
			t.Fatalf("invalid JSON %q", got.String())
		}
		got.Reset()
		if err := writeTSV(&got, &sparql.ResultSet{Vars: []string{"v"}, Rows: [][]rdf.Term{{term}}}); err != nil {
			t.Fatal(err)
		}
		wantTSV := "?v\n\n"
		if !term.IsZero() {
			wantTSV = "?v\n" + refTSVTerm(term) + "\n"
		}
		if got.String() != wantTSV {
			t.Fatalf("TSV differs:\ngot  %q\nwant %q", got.String(), wantTSV)
		}
	})
}

// TestWritersAllocateIndependentOfRows pins the streaming contract: one
// buffer and the escaped variable names per response, nothing per row.
func TestWritersAllocateIndependentOfRows(t *testing.T) {
	results := func(n int) *sparql.ResultSet {
		rs := &sparql.ResultSet{Vars: []string{"w", "name", "year", "note"}}
		for i := 0; i < n; i++ {
			rs.Rows = append(rs.Rows, []rdf.Term{
				rdf.NewIRI("http://sws.ifi.uio.no/data/npd-v2/wellbore/" + strings.Repeat("7", i%9+1)),
				rdf.NewLangLiteral("Snøhvit \"Nord\"", "no"),
				rdf.NewTypedLiteral("2010", rdf.XSDInteger),
				{}, // unbound
			})
		}
		return rs
	}
	small, large := results(10), results(1000)
	for _, w := range []struct {
		name  string
		write func(io.Writer, *sparql.ResultSet) error
	}{{"json", writeJSON}, {"tsv", writeTSV}} {
		allocs := func(rs *sparql.ResultSet) float64 {
			return testing.AllocsPerRun(20, func() {
				if err := w.write(io.Discard, rs); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a10, a1000 := allocs(small), allocs(large); a10 != a1000 {
			t.Errorf("%s: %v allocations for 10 rows, %v for 1000", w.name, a10, a1000)
		}
	}
}
