// Package r2rml implements the mapping layer of the OBDA architecture:
// R2RML-style triples maps with logical tables (base tables or SQL views),
// IRI templates, and predicate–object maps; a compact textual mapping
// syntax; and a materializer that exposes the virtual RDF graph of a
// relational database.
package r2rml

import (
	"fmt"
	"strings"

	"npdbench/internal/sqldb"
)

// Template is an IRI or literal template with {column} placeholders, e.g.
// "http://npd#wellbore/{id}". A template with no placeholders is a
// constant.
type Template struct {
	// Parts alternates literal segments and placeholders: even indexes are
	// literal text, odd indexes are column names. All are substrings of
	// src.
	parts []string
	// Columns caches the placeholder names in order.
	Columns []string
	// src is the parsed source, and the token form DisjointUnder walks:
	// every byte outside braces is a literal token, every "{col}" one
	// placeholder token. Braces never occur in literal text.
	src string
}

// ParseTemplate parses "{col}" placeholder syntax. Braces cannot be nested
// or escaped (the R2RML subset the benchmark needs).
func ParseTemplate(s string) (*Template, error) {
	t := Template{src: s}
	lit := 0 // start of the current literal segment
	i := 0
	for i < len(s) {
		switch s[i] {
		case '{':
			j := strings.IndexByte(s[i:], '}')
			if j < 0 {
				return nil, fmt.Errorf("r2rml: unterminated placeholder in %q", s)
			}
			col := s[i+1 : i+j]
			if col == "" {
				return nil, fmt.Errorf("r2rml: empty placeholder in %q", s)
			}
			t.parts = append(t.parts, s[lit:i], col)
			t.Columns = append(t.Columns, col)
			i += j + 1
			lit = i
		case '}':
			return nil, fmt.Errorf("r2rml: unbalanced '}' in %q", s)
		default:
			i++
		}
	}
	t.parts = append(t.parts, s[lit:])
	return &t, nil
}

// MustParseTemplate parses or panics (static mapping definitions).
func MustParseTemplate(s string) *Template {
	t, err := ParseTemplate(s)
	if err != nil {
		panic(err)
	}
	return t
}

// IsConstant reports whether the template has no placeholders.
func (t *Template) IsConstant() bool { return len(t.Columns) == 0 }

// Skeleton exposes the template structure: the literal segments (always
// len(cols)+1, possibly empty strings) and the placeholder columns in
// order. The unfolder uses it to compile template expansion into SQL
// concatenation and to align join columns between identical skeletons.
func (t *Template) Skeleton() (literals []string, cols []string) {
	for i, p := range t.parts {
		if i%2 == 0 {
			literals = append(literals, p)
		} else {
			cols = append(cols, p)
		}
	}
	return literals, cols
}

// String reconstructs the template source.
func (t *Template) String() string {
	var sb strings.Builder
	for i, p := range t.parts {
		if i%2 == 1 {
			sb.WriteString("{" + p + "}")
		} else {
			sb.WriteString(p)
		}
	}
	return sb.String()
}

// Expand instantiates the template with column values. It returns ok=false
// when any referenced value is NULL or missing (R2RML: no term generated).
func (t *Template) Expand(get func(col string) (sqldb.Value, bool)) (string, bool) {
	var sb strings.Builder
	for i, p := range t.parts {
		if i%2 == 0 {
			sb.WriteString(p)
			continue
		}
		v, ok := get(p)
		if !ok || v.IsNull() {
			return "", false
		}
		sb.WriteString(iriSafe(v.String()))
	}
	return sb.String(), true
}

// iriSafe percent-encodes the characters R2RML requires to be escaped in
// IRI template expansion.
func iriSafe(s string) string {
	if !strings.ContainsAny(s, " \"<>{}|\\^`%") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if strings.IndexByte(" \"<>{}|\\^`%", c) >= 0 {
			fmt.Fprintf(&sb, "%%%02X", c)
		} else {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

func iriUnsafe(s string) string {
	if !strings.Contains(s, "%") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '%' && i+2 < len(s) {
			var b byte
			if n, err := fmt.Sscanf(s[i+1:i+3], "%02X", &b); err == nil && n == 1 {
				sb.WriteByte(b)
				i += 3
				continue
			}
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String()
}

// Match attempts the inverse of Expand: given a concrete string, recover
// the placeholder values. It returns ok=false when the string cannot have
// been produced by this template. Matching is greedy-left with literal
// separators; templates whose adjacent placeholders have no separator are
// rejected as ambiguous.
func (t *Template) Match(s string) (map[string]string, bool) {
	vals := make(map[string]string)
	rest := s
	for i := 0; i < len(t.parts); i++ {
		p := t.parts[i]
		if i%2 == 0 {
			if !strings.HasPrefix(rest, p) {
				return nil, false
			}
			rest = rest[len(p):]
			continue
		}
		// placeholder: capture up to the next literal part
		if i+1 >= len(t.parts) {
			vals[p] = iriUnsafe(rest)
			rest = ""
			continue
		}
		sep := t.parts[i+1]
		if sep == "" {
			// adjacent placeholders or trailing empty literal
			if i+2 >= len(t.parts) {
				vals[p] = iriUnsafe(rest)
				rest = ""
				continue
			}
			return nil, false
		}
		j := strings.Index(rest, sep)
		if j < 0 {
			return nil, false
		}
		vals[p] = iriUnsafe(rest[:j])
		rest = rest[j:]
	}
	if rest != "" {
		return nil, false
	}
	return vals, true
}

// ValueClass is the set of strings a template placeholder can expand to.
type ValueClass uint8

const (
	// Any admits every string: text, float and bool columns, computed
	// columns, and any column whose type could not be resolved.
	Any ValueClass = iota
	// Digits admits [0-9-]*: every rendering of an INT value
	// (strconv.FormatInt) or a DATE value (%04d-%02d-%02d).
	Digits
)

func (k ValueClass) admits(b byte) bool {
	return k == Any || b == '-' || (b >= '0' && b <= '9')
}

// ColumnClasses maps a lower-cased column name to its value class. A
// missing column, and a nil ColumnClasses, mean Any.
type ColumnClasses map[string]ValueClass

func (cc ColumnClasses) of(col string) ValueClass {
	// Lower-case ASCII into a stack buffer: a map index by string(b) does
	// not allocate, and NPD column names are camelCase.
	var buf [64]byte
	b := buf[:0]
	for i := 0; i < len(col); i++ {
		c := col[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return cc[string(b)]
}

// DisjointWith proves that no string can be produced by both templates
// when every placeholder is Any. It is the untyped case of DisjointUnder.
func (t *Template) DisjointWith(u *Template) bool {
	return t.DisjointUnder(nil, u, nil)
}

// DisjointUnder proves that no string can be produced by both templates
// when each placeholder expands to a string of its column's value class
// (tc for t's columns, uc for u's). It is the shared disjointness test
// behind the unfolder's branch pruning and the static analyzer's
// unjoinable-template diagnostics.
//
// Each template is read as its literal bytes plus one placeholder per
// column; a placeholder of class Any matches Σ*, one of class Digits
// matches [0-9-]*. The check is exact for that model: it walks the
// product of the two token sequences and reports disjoint when no path
// consumes both to the end, in O(|t|·|u|) time and, for u shorter than
// 256 bytes, without allocating. So
// "p/{a}-{b}" and "p/{a}_{b}" may collide under Any ("p/1_2-3") but are
// disjoint when a and b are Digits, and "w/{id}" never collides with
// "w/{id}/core/{n}" when id is Digits, because '/' is not a digit.
func (t *Template) DisjointUnder(tc ColumnClasses, u *Template, uc ColumnClasses) bool {
	tk := classCache{t: t, cc: tc}
	uk := classCache{t: u, cc: uc}
	ts, us := t.src, u.src
	n, m := len(ts), len(us)
	// Positions are token starts in src. row[q] is true when state (p, q)
	// is reachable: t has consumed ts[:p] and u us[:q] on a common prefix.
	// Every move advances p or q, so one row suffices, and only the span
	// from the previous row's first reachable state onward can be reached
	// again.
	var rowBuf [256]bool
	var row []bool
	if m < len(rowBuf) {
		row = rowBuf[:m+1]
	} else {
		row = make([]bool, m+1)
	}
	lo, hi := 0, 0 // first and last reachable q of the previous row
	pPrev := -1    // the previous row's p; -1 before the first row
	for p := 0; ; p = t.next(p) {
		newLo, newHi := -1, -1
		qPrev, left, diag := -1, false, false // state (p, qPrev) and (pPrev, qPrev)
		for q := lo; q <= m; q = u.next(q) {
			if qPrev > hi && !left {
				break // nothing above or to the left: the rest stays false
			}
			up := row[q] // state (pPrev, q)
			reach := pPrev < 0 && q == 0
			if !reach && up {
				// t skips a placeholder, or consumes a literal byte while
				// u sits on a placeholder admitting it.
				reach = ts[pPrev] == '{' || (q < m && us[q] == '{' && uk.admits(q, ts[pPrev]))
			}
			if !reach && left {
				// the same with the roles swapped
				reach = us[qPrev] == '{' || (p < n && ts[p] == '{' && tk.admits(p, us[qPrev]))
			}
			if !reach && diag {
				// both consume the same literal byte
				reach = ts[pPrev] != '{' && ts[pPrev] == us[qPrev]
			}
			row[q] = reach
			qPrev, left, diag = q, reach, up
			if reach {
				if newLo < 0 {
					newLo = q
				}
				newHi = q
			}
		}
		if newLo < 0 {
			return true
		}
		if p == n {
			return !row[m]
		}
		lo, hi, pPrev = newLo, newHi, p
	}
}

// next returns the start of the token after the one starting at i.
func (t *Template) next(i int) int {
	if i < len(t.src) && t.src[i] == '{' {
		return i + strings.IndexByte(t.src[i:], '}') + 1
	}
	return i + 1
}

// classCache resolves the value classes of a template's placeholders on
// first use, so a call looks each column up at most once.
type classCache struct {
	t   *Template
	cc  ColumnClasses
	n   int
	pos [8]int
	cls [8]ValueClass
}

// admits reports whether the placeholder starting at src[hole] can produce
// literal byte b.
func (c *classCache) admits(hole int, b byte) bool {
	if c.cc == nil {
		return true
	}
	for k := 0; k < c.n; k++ {
		if c.pos[k] == hole {
			return c.cls[k].admits(b)
		}
	}
	src := c.t.src[hole+1:]
	cls := c.cc.of(src[:strings.IndexByte(src, '}')])
	if c.n < len(c.pos) {
		c.pos[c.n], c.cls[c.n] = hole, cls
		c.n++
	}
	return cls.admits(b)
}
