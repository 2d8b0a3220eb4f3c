package server

import (
	"io"
	"unicode/utf8"

	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
)

// Result serialization. Both writers append a response into one reused
// buffer and hand it to the connection every flushAt bytes, so a large
// result set never builds a second in-memory document on top of the
// engine's rows, and a response allocates the same for ten rows as for a
// thousand.

// flushAt is the buffered size past which a writer hands its bytes on.
const flushAt = 4096

// writeResults serializes rs in the negotiated format.
func writeResults(w io.Writer, f resultFormat, rs *sparql.ResultSet) error {
	if f == formatTSV {
		return writeTSV(w, rs)
	}
	return writeJSON(w, rs)
}

// flush hands buf to w once it holds flushAt bytes and returns it emptied.
func flush(w io.Writer, buf []byte) ([]byte, error) {
	if len(buf) < flushAt {
		return buf, nil
	}
	_, err := w.Write(buf)
	return buf[:0], err
}

// writeJSON emits the SPARQL 1.1 Query Results JSON Format: a head with
// the projected variables, then one binding object per solution. Unbound
// variables (zero terms) are omitted from their row, per spec. The bytes
// are those encoding/json writes for the same document (but a nil Vars
// is written as [], not null): strings escaped as appendJSONString does,
// term objects with their keys in sorted order, and a trailing newline.
func writeJSON(w io.Writer, rs *sparql.ResultSet) error {
	buf := make([]byte, 0, 2*flushAt)
	buf = append(buf, `{"head":{"vars":[`...)
	// Each variable's `"name":` is escaped once per response.
	keys := make([][]byte, len(rs.Vars))
	for j, v := range rs.Vars {
		if j > 0 {
			buf = append(buf, ',')
		}
		keys[j] = append(appendJSONString(nil, v), ':')
		buf = append(buf, keys[j][:len(keys[j])-1]...)
	}
	buf = append(buf, `]},"results":{"bindings":[`...)
	var err error
	for i, row := range rs.Rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		first := true
		for j, t := range row {
			if t.IsZero() || j >= len(keys) {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, keys[j]...)
			buf = appendJSONTerm(buf, t)
		}
		buf = append(buf, '}')
		if buf, err = flush(w, buf); err != nil {
			return err
		}
	}
	buf = append(buf, "]}}\n"...)
	_, err = w.Write(buf)
	return err
}

// appendJSONTerm appends one RDF term as its results-JSON object, keys in
// the order json.Marshal gives a map: datatype, type, value, xml:lang.
func appendJSONTerm(buf []byte, t rdf.Term) []byte {
	switch {
	case t.IsIRI():
		buf = append(buf, `{"type":"uri","value":`...)
		buf = appendJSONString(buf, t.Value)
	case t.IsBlank():
		buf = append(buf, `{"type":"bnode","value":`...)
		buf = appendJSONString(buf, t.Value)
	case t.Lang != "":
		buf = append(buf, `{"type":"literal","value":`...)
		buf = appendJSONString(buf, t.Value)
		buf = append(buf, `,"xml:lang":`...)
		buf = appendJSONString(buf, t.Lang)
	case t.Datatype != "" && t.Datatype != rdf.XSDString:
		buf = append(buf, `{"datatype":`...)
		buf = appendJSONString(buf, t.Datatype)
		buf = append(buf, `,"type":"literal","value":`...)
		buf = appendJSONString(buf, t.Value)
	default:
		buf = append(buf, `{"type":"literal","value":`...)
		buf = appendJSONString(buf, t.Value)
	}
	return append(buf, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it: `"` and `\` backslash-escaped; \b, \f, \n, \r and \t by
// name; other control bytes and the HTML-sensitive <, > and & as \u00XX;
// each byte of invalid UTF-8 as \ufffd; and U+2028 and U+2029 as
// \u2028 and \u2029.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// writeTSV emits the SPARQL 1.1 TSV results format: a ?var header line,
// then one Turtle-syntax term per cell (empty cell = unbound).
func writeTSV(w io.Writer, rs *sparql.ResultSet) error {
	buf := make([]byte, 0, 2*flushAt)
	for i, v := range rs.Vars {
		if i > 0 {
			buf = append(buf, '\t')
		}
		buf = append(buf, '?')
		buf = append(buf, v...)
	}
	buf = append(buf, '\n')
	var err error
	for _, row := range rs.Rows {
		for j := range rs.Vars {
			if j > 0 {
				buf = append(buf, '\t')
			}
			if j < len(row) && !row[j].IsZero() {
				buf = appendTSVTerm(buf, row[j])
			}
		}
		buf = append(buf, '\n')
		if buf, err = flush(w, buf); err != nil {
			return err
		}
	}
	_, err = w.Write(buf)
	return err
}

// appendTSVTerm appends one term in the Turtle-ish syntax TSV results use.
func appendTSVTerm(buf []byte, t rdf.Term) []byte {
	switch {
	case t.IsIRI():
		buf = append(buf, '<')
		buf = append(buf, t.Value...)
		return append(buf, '>')
	case t.IsBlank():
		buf = append(buf, "_:"...)
		return append(buf, t.Value...)
	}
	buf = append(buf, '"')
	buf = appendTSVLiteral(buf, t.Value)
	buf = append(buf, '"')
	if t.Lang != "" {
		buf = append(buf, '@')
		buf = append(buf, t.Lang...)
	} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
		buf = append(buf, "^^<"...)
		buf = append(buf, t.Datatype...)
		buf = append(buf, '>')
	}
	return buf
}

// appendTSVLiteral appends a literal's lexical form with the characters
// that would break a TSV cell or a quoted Turtle literal escaped: \, ",
// tab, newline and carriage return.
func appendTSVLiteral(buf []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		esc := s[i]
		switch esc {
		case '\\', '"':
		case '\t':
			esc = 't'
		case '\n':
			esc = 'n'
		case '\r':
			esc = 'r'
		default:
			continue
		}
		buf = append(buf, s[start:i]...)
		buf = append(buf, '\\', esc)
		start = i + 1
	}
	return append(buf, s[start:]...)
}
