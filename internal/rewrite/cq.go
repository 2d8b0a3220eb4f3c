// Package rewrite implements phase 2 of the OBDA query-answering workflow:
// rewriting a conjunctive query over the ontology vocabulary into a union
// of conjunctive queries (UCQ) that embeds the inferences of the OWL 2 QL
// TBox. Two complementary mechanisms are provided, matching the systems
// the paper evaluates:
//
//   - hierarchy rewriting: every atom is expanded by the sub-concepts /
//     sub-properties that entail it (the classic PerfectRef-style UCQ
//     expansion);
//   - T-mappings: the hierarchy closure is compiled into the mapping at
//     load time instead (see Saturate), so only existential reasoning
//     remains at query time;
//   - tree-witness rewriting: detection of query subtrees that can be
//     matched in the anonymous part of the canonical model generated by
//     axioms of the form A ⊑ ∃R.B, with the folded alternatives emitted
//     as extra UCQ disjuncts;
//   - entailed-atom elimination: every CQ of the tree-witness rewriting
//     loses the atoms the rest of it entails under the TBox (see
//     dropEntailed), before the UCQ is minimised.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"npdbench/internal/owl"
	"npdbench/internal/rdf"
	"npdbench/internal/sparql"
)

// Term is a CQ term: a variable or an RDF constant.
type Term struct {
	Var   string
	Const rdf.Term
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		return "?" + t.Var
	}
	return t.Const.String()
}

// AtomKind classifies CQ atoms.
type AtomKind uint8

// Atom kinds.
const (
	ClassAtom AtomKind = iota
	ObjPropAtom
	DataPropAtom
)

// Atom is a query atom: Class(S), ObjProp(S,O) or DataProp(S,O).
type Atom struct {
	Kind AtomKind
	Pred string // class or property IRI
	S, O Term
}

func (a Atom) String() string {
	if a.Kind == ClassAtom {
		return fmt.Sprintf("%s(%s)", localName(a.Pred), a.S)
	}
	return fmt.Sprintf("%s(%s,%s)", localName(a.Pred), a.S, a.O)
}

func localName(iri string) string {
	if i := strings.LastIndexAny(iri, "#/"); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}

// Vars returns the variables of the atom.
func (a Atom) Vars() []string {
	var out []string
	if a.S.IsVar() {
		out = append(out, a.S.Var)
	}
	if a.Kind != ClassAtom && a.O.IsVar() {
		out = append(out, a.O.Var)
	}
	return out
}

// CQ is a conjunctive query: a set of atoms with distinguished answer
// variables.
type CQ struct {
	Atoms  []Atom
	Answer []string
}

func (q *CQ) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return "q(" + strings.Join(q.Answer, ",") + ") <- " + strings.Join(parts, " ∧ ")
}

// Normalize removes duplicate atoms (identical predicate and terms); the
// tree-witness folding and hierarchy expansion can introduce them, and each
// duplicate would multiply the unfolder's mapping-candidate walk.
func (q *CQ) Normalize() {
	seen := make(map[string]bool, len(q.Atoms))
	out := q.Atoms[:0]
	for _, a := range q.Atoms {
		k := a.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	q.Atoms = out
}

// Clone deep-copies the CQ.
func (q *CQ) Clone() *CQ {
	nq := &CQ{
		Atoms:  append([]Atom{}, q.Atoms...),
		Answer: append([]string{}, q.Answer...),
	}
	return nq
}

// Vars returns the sorted variable set of the CQ.
func (q *CQ) Vars() []string {
	set := map[string]bool{}
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// UCQ is a union of conjunctive queries.
type UCQ []*CQ

func (u UCQ) String() string {
	parts := make([]string, len(u))
	for i, q := range u {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\nUNION\n")
}

// FromBGP translates a SPARQL basic graph pattern into a CQ over the
// ontology vocabulary. Predicates must be IRIs; a triple with predicate
// rdf:type and an IRI object becomes a class atom; other predicates are
// classified as object or data properties using the ontology declarations
// (unknown predicates default to object properties).
func FromBGP(bgp *sparql.BGP, onto *owl.Ontology, answer []string) (*CQ, error) {
	cq := &CQ{Answer: append([]string{}, answer...)}
	for _, tp := range bgp.Triples {
		if tp.P.IsVar() {
			return nil, fmt.Errorf("rewrite: variable predicates are not supported (%s)", tp)
		}
		pred := tp.P.Term.Value
		s := toTerm(tp.S)
		o := toTerm(tp.O)
		if pred == rdf.RDFType {
			if tp.O.IsVar() || !tp.O.Term.IsIRI() {
				return nil, fmt.Errorf("rewrite: rdf:type object must be a class IRI (%s)", tp)
			}
			cq.Atoms = append(cq.Atoms, Atom{Kind: ClassAtom, Pred: tp.O.Term.Value, S: s})
			continue
		}
		kind := ObjPropAtom
		if onto != nil && onto.HasDataProperty(pred) {
			kind = DataPropAtom
		}
		cq.Atoms = append(cq.Atoms, Atom{Kind: kind, Pred: pred, S: s, O: o})
	}
	return cq, nil
}

func toTerm(tv sparql.TermOrVar) Term {
	if tv.IsVar() {
		return Term{Var: tv.Var}
	}
	return Term{Const: tv.Term}
}
