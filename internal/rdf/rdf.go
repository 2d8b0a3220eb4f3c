// Package rdf provides the RDF data model used throughout the OBDA stack:
// IRIs, typed literals, blank nodes and triples.
package rdf

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// TermKind distinguishes the three RDF term categories.
type TermKind uint8

// Term kinds.
const (
	IRI TermKind = iota
	Literal
	Blank
)

// Well-known namespaces.
const (
	RDFNS  = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
	RDFSNS = "http://www.w3.org/2000/01/rdf-schema#"
	OWLNS  = "http://www.w3.org/2002/07/owl#"
	XSDNS  = "http://www.w3.org/2001/XMLSchema#"

	RDFType = RDFNS + "type"

	XSDString  = XSDNS + "string"
	XSDInteger = XSDNS + "integer"
	XSDDecimal = XSDNS + "decimal"
	XSDDouble  = XSDNS + "double"
	XSDBoolean = XSDNS + "boolean"
	XSDDate    = XSDNS + "date"
)

// Term is an RDF term. Terms are value types; two terms are equal iff their
// fields are equal, so Term is directly usable as a map key.
type Term struct {
	Kind TermKind
	// Value holds the IRI string, the literal lexical form, or the blank
	// node label.
	Value string
	// Datatype holds the literal datatype IRI ("" means xsd:string).
	Datatype string
	// Lang holds the literal language tag, if any.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain string literal.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewTypedLiteral returns a literal with an explicit datatype.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return NewTypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsZero reports whether t is the zero Term (no term at all).
func (t Term) IsZero() bool { return t == Term{} }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Literal:
		v := literalEscaper.Replace(t.Value)
		if t.Lang != "" {
			return `"` + v + `"@` + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return `"` + v + `"^^<` + t.Datatype + ">"
		}
		return `"` + v + `"`
	}
	return "?"
}

// literalEscaper escapes a literal's lexical form for N-Triples. It is
// built once; a strings.Replacer is safe for concurrent use.
var literalEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)

// AppendKey appends an encoding of t that two terms share exactly when
// their N-Triples renderings (Term.String) are equal: the zero Term (an
// unbound slot) renders like the empty IRI, a literal's language tag hides
// its datatype, xsd:string is the plain literal's datatype, and every
// unknown kind renders as "?". Strings are length-prefixed, so the
// concatenated keys of several terms stay unambiguous. It keys every
// duplicate check and hash join over solutions without rendering a term.
func AppendKey(buf []byte, t Term) []byte {
	tag, value, extra := byte('?'), "", ""
	switch t.Kind {
	case IRI:
		tag, value = 'I', t.Value
	case Blank:
		tag, value = 'B', t.Value
	case Literal:
		tag, value = 'S', t.Value
		if t.Lang != "" {
			tag, extra = 'L', t.Lang
		} else if t.Datatype != "" && t.Datatype != XSDString {
			tag, extra = 'T', t.Datatype
		}
	}
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, value...)
	buf = binary.AppendUvarint(buf, uint64(len(extra)))
	return append(buf, extra...)
}

// LocalName returns the fragment or last path segment of an IRI.
func (t Term) LocalName() string {
	if t.Kind != IRI {
		return t.Value
	}
	if i := strings.LastIndexAny(t.Value, "#/"); i >= 0 && i+1 < len(t.Value) {
		return t.Value[i+1:]
	}
	return t.Value
}

// Triple is an RDF statement.
type Triple struct {
	S, P, O Term
}

func (tr Triple) String() string {
	return tr.S.String() + " " + tr.P.String() + " " + tr.O.String() + " ."
}

// CompareTerms orders terms for deterministic output: IRIs < blanks <
// literals, then lexicographically.
func CompareTerms(a, b Term) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

// SortTriples orders triples S-P-O for deterministic serialization.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		if c := CompareTerms(ts[i].S, ts[j].S); c != 0 {
			return c < 0
		}
		if c := CompareTerms(ts[i].P, ts[j].P); c != 0 {
			return c < 0
		}
		return CompareTerms(ts[i].O, ts[j].O) < 0
	})
}

// PrefixMap maps prefixes to namespace IRIs for compact rendering and the
// query/mapping parsers.
type PrefixMap map[string]string

// StandardPrefixes returns the ubiquitous prefix bindings.
func StandardPrefixes() PrefixMap {
	return PrefixMap{
		"rdf":  RDFNS,
		"rdfs": RDFSNS,
		"owl":  OWLNS,
		"xsd":  XSDNS,
	}
}

// Expand resolves a prefixed name ("npdv:Wellbore") against the map; IRIs
// wrapped in <> are returned verbatim.
func (pm PrefixMap) Expand(qname string) (string, error) {
	if strings.HasPrefix(qname, "<") && strings.HasSuffix(qname, ">") {
		return qname[1 : len(qname)-1], nil
	}
	i := strings.Index(qname, ":")
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is not a prefixed name", qname)
	}
	ns, ok := pm[qname[:i]]
	if !ok {
		return "", fmt.Errorf("rdf: unknown prefix %q", qname[:i])
	}
	return ns + qname[i+1:], nil
}

// Compact renders an IRI using the longest matching prefix, falling back to
// <iri> form.
func (pm PrefixMap) Compact(iri string) string {
	best, bestNS := "", ""
	for p, ns := range pm {
		if strings.HasPrefix(iri, ns) && len(ns) > len(bestNS) {
			best, bestNS = p, ns
		}
	}
	if bestNS == "" {
		return "<" + iri + ">"
	}
	local := iri[len(bestNS):]
	if strings.ContainsAny(local, "/#") {
		return "<" + iri + ">"
	}
	return best + ":" + local
}
