package server

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"

	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
)

// Result serialization. Both writers stream: rows go out as they are
// encoded, through one buffered writer, so a large result set never
// builds a second in-memory document on top of the engine's bindings.

// writeResults serializes rs in the negotiated format.
func writeResults(w io.Writer, f resultFormat, rs *sparql.ResultSet) error {
	if f == formatTSV {
		return writeTSV(w, rs)
	}
	return writeJSON(w, rs)
}

// writeJSON emits the SPARQL 1.1 Query Results JSON Format: a head with
// the projected variables, then one binding object per solution. Unbound
// variables (zero terms) are omitted from their row, per spec.
func writeJSON(w io.Writer, rs *sparql.ResultSet) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"head":{"vars":`)
	vars, err := json.Marshal(rs.Vars)
	if err != nil {
		return err
	}
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
			name, err := json.Marshal(rs.Vars[j])
			if err != nil {
				return err
			}
			bw.Write(name)
			bw.WriteByte(':')
			obj, err := json.Marshal(jsonTerm(t))
			if err != nil {
				return err
			}
			bw.Write(obj)
		}
		bw.WriteByte('}')
	}
	bw.WriteString(`]}}`)
	bw.WriteByte('\n')
	return bw.Flush()
}

// jsonTerm maps one RDF term onto the results-JSON object shape.
func jsonTerm(t rdf.Term) map[string]string {
	switch {
	case t.IsIRI():
		return map[string]string{"type": "uri", "value": t.Value}
	case t.IsBlank():
		return map[string]string{"type": "bnode", "value": t.Value}
	default:
		obj := map[string]string{"type": "literal", "value": t.Value}
		if t.Lang != "" {
			obj["xml:lang"] = t.Lang
		} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
			obj["datatype"] = t.Datatype
		}
		return obj
	}
}

// writeTSV emits the SPARQL 1.1 TSV results format: a ?var header line,
// then one Turtle-syntax term per cell (empty cell = unbound).
func writeTSV(w io.Writer, rs *sparql.ResultSet) error {
	bw := bufio.NewWriter(w)
	for i, v := range rs.Vars {
		if i > 0 {
			bw.WriteByte('\t')
		}
		bw.WriteByte('?')
		bw.WriteString(v)
	}
	bw.WriteByte('\n')
	for _, row := range rs.Rows {
		for j := range rs.Vars {
			if j > 0 {
				bw.WriteByte('\t')
			}
			if j < len(row) && !row[j].IsZero() {
				bw.WriteString(tsvTerm(row[j]))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// tsvTerm renders one term in the Turtle-ish syntax TSV results use.
func tsvTerm(t rdf.Term) string {
	switch {
	case t.IsIRI():
		return "<" + t.Value + ">"
	case t.IsBlank():
		return "_:" + t.Value
	default:
		var sb strings.Builder
		sb.WriteByte('"')
		sb.WriteString(tsvLiteralEscaper.Replace(t.Value))
		sb.WriteByte('"')
		if t.Lang != "" {
			sb.WriteByte('@')
			sb.WriteString(t.Lang)
		} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
			sb.WriteString("^^<")
			sb.WriteString(t.Datatype)
			sb.WriteByte('>')
		}
		return sb.String()
	}
}

// tsvLiteralEscaper escapes the characters that would break a TSV cell or
// a quoted Turtle literal. It is built once; a strings.Replacer is safe
// for concurrent use.
var tsvLiteralEscaper = strings.NewReplacer(
	`\`, `\\`,
	`"`, `\"`,
	"\t", `\t`,
	"\n", `\n`,
	"\r", `\r`,
)
