package sparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"npdbench/internal/rdf"
)

// Parse parses a SPARQL SELECT query. extraPrefixes (may be nil) are merged
// under any PREFIX declarations in the query text.
func Parse(src string, extraPrefixes rdf.PrefixMap) (*Query, error) {
	toks, err := lexSPARQL(src)
	if err != nil {
		return nil, err
	}
	p := &sparser{toks: toks, prefixes: rdf.StandardPrefixes()}
	for k, v := range extraPrefixes {
		p.prefixes[k] = v
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse parses or panics; for the static benchmark query set.
func MustParse(src string, prefixes rdf.PrefixMap) *Query {
	q, err := Parse(src, prefixes)
	if err != nil {
		panic(fmt.Sprintf("sparql.MustParse: %v\nquery: %s", err, src))
	}
	return q
}

// ---- lexer ----

type stokKind uint8

const (
	stEOF stokKind = iota
	stIRI
	stPName  // prefixed name, text includes the colon
	stVar    // text without the ? or $
	stString // lexical form
	stNumber
	stKeyword
	stSymbol
	stBlankLabel // _:label
	stLangTag    // @en — text without the @
)

type stok struct {
	kind stokKind
	text string
	pos  int
}

var sparqlKeywords = map[string]bool{
	"PREFIX": true, "BASE": true, "SELECT": true, "DISTINCT": true,
	"REDUCED": true, "WHERE": true, "FILTER": true, "OPTIONAL": true,
	"UNION": true, "GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true, "AS": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"BOUND": true, "STR": true, "LANG": true, "DATATYPE": true, "REGEX": true,
	"A": true, "TRUE": true, "FALSE": true, "NOT": true, "EXISTS": true,
}

func lexSPARQL(src string) ([]stok, error) {
	var toks []stok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '<':
			j := strings.IndexByte(src[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("sparql: unterminated IRI at %d", i)
			}
			toks = append(toks, stok{stIRI, src[i+1 : i+j], i})
			i += j + 1
		case c == '?' || c == '$':
			j := i + 1
			for j < len(src) && isPNChar(src[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("sparql: bad variable at %d", i)
			}
			toks = append(toks, stok{stVar, src[i+1 : j], i})
			i = j
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					switch src[j+1] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case 'r':
						sb.WriteByte('\r')
					default:
						sb.WriteByte(src[j+1])
					}
					j += 2
					continue
				}
				sb.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("sparql: unterminated string at %d", i)
			}
			toks = append(toks, stok{stString, sb.String(), i})
			i = j + 1
		case c == '_' && i+1 < len(src) && src[i+1] == ':':
			j := i + 2
			for j < len(src) && isPNChar(src[j]) {
				j++
			}
			toks = append(toks, stok{stBlankLabel, src[i+2 : j], i})
			i = j
		case c >= '0' && c <= '9' || (c == '-' || c == '+') && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i
			if c == '-' || c == '+' {
				j++
			}
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			toks = append(toks, stok{stNumber, src[i:j], i})
			i = j
		case c == ':':
			// default-prefix name, e.g. :Employee
			j := i + 1
			for j < len(src) && (isPNChar(src[j]) || src[j] == '/' || src[j] == '.' && j+1 < len(src) && isPNChar(src[j+1])) {
				j++
			}
			toks = append(toks, stok{stPName, src[i:j], i})
			i = j
		case isPNCharBase(c):
			j := i
			for j < len(src) && (isPNChar(src[j]) || src[j] == ':' || src[j] == '/' && j > i && strings.Contains(src[i:j], ":") || src[j] == '.' && j+1 < len(src) && isPNChar(src[j+1])) {
				j++
			}
			word := src[i:j]
			if strings.Contains(word, ":") {
				toks = append(toks, stok{stPName, word, i})
			} else if up := strings.ToUpper(word); sparqlKeywords[up] {
				toks = append(toks, stok{stKeyword, up, i})
			} else {
				// bare word: treat as prefixed-name-local? Error out.
				return nil, fmt.Errorf("sparql: unexpected word %q at %d", word, i)
			}
			i = j
		default:
			for _, sym := range []string{"^^", "&&", "||", "!=", "<=", ">="} {
				if strings.HasPrefix(src[i:], sym) {
					toks = append(toks, stok{stSymbol, sym, i})
					i += len(sym)
					goto next
				}
			}
			if c == '@' {
				j := i + 1
				for j < len(src) && (isPNCharBase(src[j]) || src[j] == '-') {
					j++
				}
				if j == i+1 {
					return nil, fmt.Errorf("sparql: empty language tag at %d", i)
				}
				toks = append(toks, stok{stLangTag, src[i+1 : j], i})
				i = j
				goto next
			}
			if strings.ContainsRune("{}()[].;,=<>!*+-/", rune(c)) {
				toks = append(toks, stok{stSymbol, string(c), i})
				i++
				goto next
			}
			return nil, fmt.Errorf("sparql: unexpected character %q at %d", c, i)
		next:
		}
	}
	toks = append(toks, stok{kind: stEOF, pos: len(src)})
	return toks, nil
}

func isPNCharBase(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isPNChar(c byte) bool {
	return isPNCharBase(c) || c >= '0' && c <= '9' || c == '-'
}

// ---- parser ----

type sparser struct {
	toks     []stok
	i        int
	prefixes rdf.PrefixMap
	bnodeSeq int
}

func (p *sparser) peek() stok { return p.toks[p.i] }
func (p *sparser) advance() stok {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *sparser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: parse error near offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *sparser) acceptKeyword(kw string) bool {
	if p.peek().kind == stKeyword && p.peek().text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *sparser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *sparser) acceptSymbol(s string) bool {
	if p.peek().kind == stSymbol && p.peek().text == s {
		p.advance()
		return true
	}
	return false
}

func (p *sparser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *sparser) freshBlankVar() string {
	p.bnodeSeq++
	return fmt.Sprintf("_bn%d", p.bnodeSeq)
}

func (p *sparser) parseQuery() (*Query, error) {
	for p.acceptKeyword("PREFIX") {
		t := p.peek()
		if t.kind != stPName || !strings.HasSuffix(t.text, ":") {
			return nil, p.errf("expected prefix declaration, got %q", t.text)
		}
		p.advance()
		iri := p.peek()
		if iri.kind != stIRI {
			return nil, p.errf("expected IRI after prefix, got %q", iri.text)
		}
		p.advance()
		p.prefixes[strings.TrimSuffix(t.text, ":")] = iri.text
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Prefixes: p.prefixes, Limit: -1}
	q.Distinct = p.acceptKeyword("DISTINCT")
	p.acceptKeyword("REDUCED")
	// projection
	for {
		t := p.peek()
		if t.kind == stSymbol && t.text == "*" {
			p.advance()
			q.Star = true
			break
		}
		if t.kind == stVar {
			p.advance()
			q.Items = append(q.Items, SelectItem{Var: t.text})
			continue
		}
		if t.kind == stSymbol && t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			v := p.peek()
			if v.kind != stVar {
				return nil, p.errf("expected variable after AS")
			}
			p.advance()
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			q.Items = append(q.Items, SelectItem{Var: v.text, Expr: e})
			continue
		}
		break
	}
	if !q.Star && len(q.Items) == 0 {
		return nil, p.errf("empty SELECT clause")
	}
	p.acceptKeyword("WHERE")
	pat, err := p.parseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Pattern = pat
	if q.Star {
		for _, v := range PatternVars(pat) {
			if !strings.HasPrefix(v, "_bn") {
				q.Items = append(q.Items, SelectItem{Var: v})
			}
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for p.peek().kind == stVar {
			q.GroupBy = append(q.GroupBy, p.advance().text)
		}
		if len(q.GroupBy) == 0 {
			return nil, p.errf("empty GROUP BY")
		}
	}
	if p.acceptKeyword("HAVING") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		q.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.peek()
			switch {
			case t.kind == stKeyword && (t.text == "ASC" || t.text == "DESC"):
				p.advance()
				if err := p.expectSymbol("("); err != nil {
					return nil, err
				}
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Expr: e, Desc: t.text == "DESC"})
			case t.kind == stVar:
				p.advance()
				q.OrderBy = append(q.OrderBy, OrderKey{Expr: &VarExpr{Name: t.text}})
			default:
				goto doneOrder
			}
		}
	doneOrder:
		if len(q.OrderBy) == 0 {
			return nil, p.errf("empty ORDER BY")
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		q.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		q.Offset = n
	}
	if p.peek().kind != stEOF {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return q, nil
}

func (p *sparser) parseInt() (int, error) {
	t := p.peek()
	if t.kind != stNumber {
		return 0, p.errf("expected number, got %q", t.text)
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}

// parseGroupGraphPattern parses { ... } including FILTER/OPTIONAL/UNION.
// The group's FILTERs apply to the whole group.
func (p *sparser) parseGroupGraphPattern() (GraphPattern, error) {
	inner, filters, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	for _, f := range filters {
		inner = &Filter{Inner: inner, Cond: f}
	}
	return inner, nil
}

// parseGroup parses { ... } into the group's pattern and its FILTERs.
func (p *sparser) parseGroup() (GraphPattern, []Expr, error) {
	if err := p.expectSymbol("{"); err != nil {
		return nil, nil, err
	}
	var parts []GraphPattern
	cur := &BGP{}
	flush := func() {
		if len(cur.Triples) > 0 {
			parts = append(parts, cur)
			cur = &BGP{}
		}
	}
	var filters []Expr
	for {
		t := p.peek()
		switch {
		case t.kind == stSymbol && t.text == "}":
			p.advance()
			flush()
			var inner GraphPattern
			switch len(parts) {
			case 0:
				inner = &BGP{}
			case 1:
				inner = parts[0]
			default:
				inner = &Group{Parts: parts}
			}
			return inner, filters, nil
		case t.kind == stKeyword && t.text == "FILTER":
			p.advance()
			if err := p.expectSymbol("("); err != nil {
				return nil, nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, nil, err
			}
			filters = append(filters, e)
			p.acceptSymbol(".")
		case t.kind == stKeyword && t.text == "OPTIONAL":
			p.advance()
			right, rightFilters, err := p.parseGroup()
			if err != nil {
				return nil, nil, err
			}
			// The OPTIONAL's own FILTERs become its left-join condition.
			var cond Expr
			for _, f := range rightFilters {
				if cond == nil {
					cond = f
				} else {
					cond = &BinExpr{Op: "&&", L: cond, R: f}
				}
			}
			flush()
			var left GraphPattern
			switch len(parts) {
			case 0:
				left = &BGP{}
			case 1:
				left = parts[0]
			default:
				left = &Group{Parts: parts}
			}
			parts = []GraphPattern{&Optional{Left: left, Right: right, Cond: cond}}
			p.acceptSymbol(".")
		case t.kind == stSymbol && t.text == "{":
			sub, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, nil, err
			}
			// possible UNION chain
			for p.acceptKeyword("UNION") {
				rhs, err := p.parseGroupGraphPattern()
				if err != nil {
					return nil, nil, err
				}
				sub = &Union{Left: sub, Right: rhs}
			}
			flush()
			parts = append(parts, sub)
			p.acceptSymbol(".")
		default:
			// triples block
			if err := p.parseTriplesSameSubject(cur); err != nil {
				return nil, nil, err
			}
			if !p.acceptSymbol(".") {
				// allowed before }
				if !(p.peek().kind == stSymbol && p.peek().text == "}") &&
					!(p.peek().kind == stKeyword && (p.peek().text == "FILTER" || p.peek().text == "OPTIONAL")) {
					return nil, nil, p.errf("expected '.' or '}', got %q", p.peek().text)
				}
			}
		}
	}
}

// parseTriplesSameSubject parses subject propertyList.
func (p *sparser) parseTriplesSameSubject(bgp *BGP) error {
	subj, err := p.parseTermOrVarAllowBNode(bgp)
	if err != nil {
		return err
	}
	return p.parsePropertyList(bgp, subj, true)
}

func (p *sparser) parsePropertyList(bgp *BGP, subj TermOrVar, required bool) error {
	first := true
	for {
		t := p.peek()
		if t.kind == stSymbol && (t.text == "." || t.text == "}" || t.text == "]") {
			if first && required {
				return p.errf("expected predicate, got %q", t.text)
			}
			return nil
		}
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		// object list
		for {
			obj, err := p.parseTermOrVarAllowBNode(bgp)
			if err != nil {
				return err
			}
			bgp.Triples = append(bgp.Triples, TriplePattern{S: subj, P: pred, O: obj})
			if !p.acceptSymbol(",") {
				break
			}
		}
		first = false
		if !p.acceptSymbol(";") {
			return nil
		}
		// a dangling ';' before '.' or ']' is allowed
		if tt := p.peek(); tt.kind == stSymbol && (tt.text == "." || tt.text == "]" || tt.text == "}") {
			return nil
		}
	}
}

func (p *sparser) parsePredicate() (TermOrVar, error) {
	if p.acceptKeyword("A") {
		return T(rdf.NewIRI(rdf.RDFType)), nil
	}
	switch p.peek().kind {
	case stVar, stIRI, stPName:
		return p.parseTermOrVarAllowBNode(nil)
	}
	return TermOrVar{}, p.errf("expected predicate, got %q", p.peek().text)
}

// parseTermOrVarAllowBNode parses a node, expanding [ ... ] blank node
// property lists into fresh non-distinguished variables.
func (p *sparser) parseTermOrVarAllowBNode(bgp *BGP) (TermOrVar, error) {
	t := p.peek()
	switch t.kind {
	case stVar:
		p.advance()
		return V(t.text), nil
	case stIRI:
		p.advance()
		return T(rdf.NewIRI(t.text)), nil
	case stPName:
		p.advance()
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return TermOrVar{}, p.errf("%v", err)
		}
		return T(rdf.NewIRI(iri)), nil
	case stBlankLabel:
		p.advance()
		return V("_bnl_" + t.text), nil
	case stString:
		p.advance()
		lex := t.text
		if p.acceptSymbol("^^") {
			dt := p.peek()
			var dtIRI string
			switch dt.kind {
			case stIRI:
				dtIRI = dt.text
			case stPName:
				var err error
				dtIRI, err = p.prefixes.Expand(dt.text)
				if err != nil {
					return TermOrVar{}, p.errf("%v", err)
				}
			default:
				return TermOrVar{}, p.errf("expected datatype after ^^")
			}
			p.advance()
			return T(rdf.NewTypedLiteral(lex, dtIRI)), nil
		}
		if p.peek().kind == stLangTag {
			lang := p.advance()
			return T(rdf.NewLangLiteral(lex, lang.text)), nil
		}
		return T(rdf.NewLiteral(lex)), nil
	case stNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			return T(rdf.NewTypedLiteral(t.text, rdf.XSDDecimal)), nil
		}
		return T(rdf.NewTypedLiteral(t.text, rdf.XSDInteger)), nil
	case stKeyword:
		switch t.text {
		case "TRUE":
			p.advance()
			return T(rdf.NewTypedLiteral("true", rdf.XSDBoolean)), nil
		case "FALSE":
			p.advance()
			return T(rdf.NewTypedLiteral("false", rdf.XSDBoolean)), nil
		}
	case stSymbol:
		if t.text == "[" {
			p.advance()
			v := V(p.freshBlankVar())
			if p.acceptSymbol("]") {
				return v, nil
			}
			if err := p.parsePropertyList(bgp, v, true); err != nil {
				return TermOrVar{}, err
			}
			if err := p.expectSymbol("]"); err != nil {
				return TermOrVar{}, err
			}
			return v, nil
		}
	}
	return TermOrVar{}, p.errf("expected term, got %q", t.text)
}

// ---- expression parsing ----

func (p *sparser) parseExpr() (Expr, error)    { return p.parseBinary(p.parseAndExpr, "||") }
func (p *sparser) parseAndExpr() (Expr, error) { return p.parseBinary(p.parseRelExpr, "&&") }
func (p *sparser) parseAddExpr() (Expr, error) { return p.parseBinary(p.parseMulExpr, "+", "-") }
func (p *sparser) parseMulExpr() (Expr, error) { return p.parseBinary(p.parseUnaryExpr, "*", "/") }

// parseBinary parses a left-associative chain of operands, each parsed by
// next, joined by any of ops.
func (p *sparser) parseBinary(next func() (Expr, error), ops ...string) (Expr, error) {
	l, err := next()
	for err == nil {
		t := p.peek()
		if t.kind != stSymbol || !slices.Contains(ops, t.text) {
			return l, nil
		}
		p.advance()
		var r Expr
		if r, err = next(); err == nil {
			l = &BinExpr{Op: t.text, L: l, R: r}
		}
	}
	return nil, err
}

func (p *sparser) parseRelExpr() (Expr, error) {
	l, err := p.parseAddExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == stSymbol {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.advance()
			r, err := p.parseAddExpr()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: t.text, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *sparser) parseUnaryExpr() (Expr, error) {
	if p.acceptSymbol("!") {
		e, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	t := p.peek()
	switch t.kind {
	case stVar:
		p.advance()
		return &VarExpr{Name: t.text}, nil
	case stSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case stKeyword:
		switch t.text {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.advance()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			agg := &AggExpr{Name: t.text}
			if p.acceptSymbol("*") {
				agg.Star = true
			} else {
				agg.Distinct = p.acceptKeyword("DISTINCT")
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				agg.Arg = arg
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return agg, nil
		case "BOUND", "STR", "LANG", "DATATYPE", "REGEX":
			p.advance()
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			call := &CallExpr{Name: t.text}
			if !p.acceptSymbol(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.acceptSymbol(",") {
						break
					}
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		case "TRUE":
			p.advance()
			return &TermExpr{Term: rdf.NewTypedLiteral("true", rdf.XSDBoolean)}, nil
		case "FALSE":
			p.advance()
			return &TermExpr{Term: rdf.NewTypedLiteral("false", rdf.XSDBoolean)}, nil
		}
	}
	// concrete term
	tv, err := p.parseTermOrVarAllowBNode(&BGP{})
	if err != nil {
		return nil, err
	}
	if tv.IsVar() {
		return &VarExpr{Name: tv.Var}, nil
	}
	return &TermExpr{Term: tv.Term}, nil
}
