// Package owl models OWL 2 QL ontologies: class and property declarations
// and the axiom forms admitted by the QL profile, which guarantees
// first-order rewritability of unions of conjunctive queries (the property
// the NPD benchmark exercises).
//
// The basic concepts of OWL 2 QL are named classes A, unqualified
// existentials ∃R and ∃R⁻ over object properties, and ∃U over data
// properties. Subclass axioms have a basic concept on the left; the right
// side may additionally be a qualified existential ∃R.A (which generates
// anonymous individuals — the source of tree witnesses in query rewriting).
package owl

import (
	"fmt"
	"strings"
)

// Concept is a basic concept: a named class or an (un)qualified existential.
type Concept struct {
	// Class is the class IRI when the concept is named; empty otherwise.
	Class string
	// Prop is the property IRI when the concept is an existential.
	Prop string
	// Inverse marks ∃R⁻.
	Inverse bool
	// IsData marks ∃U over a data property.
	IsData bool
}

// NamedConcept returns the basic concept for a class IRI.
func NamedConcept(iri string) Concept { return Concept{Class: iri} }

// SomeValues returns ∃R or ∃R⁻ for an object property.
func SomeValues(prop string, inverse bool) Concept {
	return Concept{Prop: prop, Inverse: inverse}
}

// SomeData returns ∃U for a data property.
func SomeData(prop string) Concept { return Concept{Prop: prop, IsData: true} }

// IsNamed reports whether the concept is a named class.
func (c Concept) IsNamed() bool { return c.Class != "" }

func (c Concept) String() string {
	if c.IsNamed() {
		return c.Class
	}
	if c.IsData {
		return "∃" + c.Prop
	}
	if c.Inverse {
		return "∃" + c.Prop + "⁻"
	}
	return "∃" + c.Prop
}

// PropRef is a property, possibly inverted.
type PropRef struct {
	Prop    string
	Inverse bool
}

func (p PropRef) String() string {
	if p.Inverse {
		return p.Prop + "⁻"
	}
	return p.Prop
}

// Inv returns the inverse reference.
func (p PropRef) Inv() PropRef { return PropRef{Prop: p.Prop, Inverse: !p.Inverse} }

// SubClassAxiom states Sub ⊑ Sup for basic concepts. Qualified existentials
// on the right-hand side are expressed as ExistAxiom instead.
type SubClassAxiom struct {
	Sub, Sup Concept
}

// ExistAxiom states Sub ⊑ ∃Prop.Filler (anonymous-individual generation).
// Inverse marks ∃Prop⁻.Filler.
type ExistAxiom struct {
	Sub     Concept
	Prop    string
	Inverse bool
	Filler  string // named class; empty means owl:Thing
}

// SubPropAxiom states Sub ⊑ Sup between (possibly inverted) object
// properties, or between data properties (Inverse flags must be false).
type SubPropAxiom struct {
	Sub, Sup PropRef
	IsData   bool
}

// DisjointAxiom states that two basic concepts share no instances.
type DisjointAxiom struct {
	A, B Concept
}

// DisjointPropAxiom states that two object properties are disjoint.
type DisjointPropAxiom struct {
	A, B PropRef
}

// Ontology is an OWL 2 QL TBox.
type Ontology struct {
	IRI string

	classes   map[string]bool
	objProps  map[string]bool
	dataProps map[string]bool

	SubClasses    []SubClassAxiom
	Existentials  []ExistAxiom
	SubProps      []SubPropAxiom
	Disjoints     []DisjointAxiom
	DisjointProps []DisjointPropAxiom
	// Inverses lists declared owl:inverseOf pairs (P ≡ Q⁻).
	Inverses [][2]string

	cls *classification // computed lazily
}

// New creates an empty ontology.
func New(iri string) *Ontology {
	return &Ontology{
		IRI:       iri,
		classes:   make(map[string]bool),
		objProps:  make(map[string]bool),
		dataProps: make(map[string]bool),
	}
}

// DeclareClass registers a class IRI.
func (o *Ontology) DeclareClass(iri string) {
	o.classes[iri] = true
	o.cls = nil
}

// DeclareObjectProperty registers an object property IRI.
func (o *Ontology) DeclareObjectProperty(iri string) {
	o.objProps[iri] = true
	o.cls = nil
}

// DeclareDataProperty registers a data property IRI.
func (o *Ontology) DeclareDataProperty(iri string) {
	o.dataProps[iri] = true
	o.cls = nil
}

// HasClass reports whether the IRI is a declared class.
func (o *Ontology) HasClass(iri string) bool { return o.classes[iri] }

// HasObjectProperty reports whether the IRI is a declared object property.
func (o *Ontology) HasObjectProperty(iri string) bool { return o.objProps[iri] }

// HasDataProperty reports whether the IRI is a declared data property.
func (o *Ontology) HasDataProperty(iri string) bool { return o.dataProps[iri] }

// ClassNames returns the sorted class IRIs.
func (o *Ontology) ClassNames() []string { return sortedKeys(o.classes, strings.Compare) }

// ObjectPropertyNames returns the sorted object property IRIs.
func (o *Ontology) ObjectPropertyNames() []string { return sortedKeys(o.objProps, strings.Compare) }

// DataPropertyNames returns the sorted data property IRIs.
func (o *Ontology) DataPropertyNames() []string { return sortedKeys(o.dataProps, strings.Compare) }

// AddSubClass asserts Sub ⊑ Sup; both concepts' vocabulary is auto-declared.
func (o *Ontology) AddSubClass(sub, sup Concept) {
	o.declareConcept(sub)
	o.declareConcept(sup)
	o.SubClasses = append(o.SubClasses, SubClassAxiom{Sub: sub, Sup: sup})
	o.cls = nil
}

// AddExistential asserts sub ⊑ ∃prop.filler.
func (o *Ontology) AddExistential(sub Concept, prop string, inverse bool, filler string) {
	o.declareConcept(sub)
	o.objProps[prop] = true
	if filler != "" {
		o.classes[filler] = true
	}
	o.Existentials = append(o.Existentials, ExistAxiom{Sub: sub, Prop: prop, Inverse: inverse, Filler: filler})
	o.cls = nil
}

// AddSubObjectProperty asserts sub ⊑ sup between object properties.
func (o *Ontology) AddSubObjectProperty(sub, sup PropRef) {
	o.objProps[sub.Prop] = true
	o.objProps[sup.Prop] = true
	o.SubProps = append(o.SubProps, SubPropAxiom{Sub: sub, Sup: sup})
	o.cls = nil
}

// AddSubDataProperty asserts sub ⊑ sup between data properties.
func (o *Ontology) AddSubDataProperty(sub, sup string) {
	o.dataProps[sub] = true
	o.dataProps[sup] = true
	o.SubProps = append(o.SubProps, SubPropAxiom{Sub: PropRef{Prop: sub}, Sup: PropRef{Prop: sup}, IsData: true})
	o.cls = nil
}

// AddInverse asserts P ≡ Q⁻.
func (o *Ontology) AddInverse(p, q string) {
	o.objProps[p] = true
	o.objProps[q] = true
	o.Inverses = append(o.Inverses, [2]string{p, q})
	o.cls = nil
}

// AddDomain asserts ∃P ⊑ C (works for both object and data properties).
func (o *Ontology) AddDomain(prop string, isData bool, class string) {
	if isData {
		o.dataProps[prop] = true
		o.AddSubClass(SomeData(prop), NamedConcept(class))
		return
	}
	o.objProps[prop] = true
	o.AddSubClass(SomeValues(prop, false), NamedConcept(class))
}

// AddRange asserts ∃P⁻ ⊑ C for an object property.
func (o *Ontology) AddRange(prop, class string) {
	o.objProps[prop] = true
	o.AddSubClass(SomeValues(prop, true), NamedConcept(class))
}

// AddDisjoint asserts that a and b share no instances.
func (o *Ontology) AddDisjoint(a, b Concept) {
	o.declareConcept(a)
	o.declareConcept(b)
	o.Disjoints = append(o.Disjoints, DisjointAxiom{A: a, B: b})
	o.cls = nil
}

// AddDisjointProperties asserts that object properties a and b are disjoint.
func (o *Ontology) AddDisjointProperties(a, b PropRef) {
	o.objProps[a.Prop] = true
	o.objProps[b.Prop] = true
	o.DisjointProps = append(o.DisjointProps, DisjointPropAxiom{A: a, B: b})
	o.cls = nil
}

func (o *Ontology) declareConcept(c Concept) {
	switch {
	case c.IsNamed():
		o.classes[c.Class] = true
	case c.IsData:
		o.dataProps[c.Prop] = true
	default:
		o.objProps[c.Prop] = true
	}
}

// Stats summarizes the ontology for the paper's Table 3 columns.
type Stats struct {
	Classes         int
	ObjectProps     int
	DataProps       int
	InclusionAxioms int
	MaxDepth        int // longest chain in the named-class hierarchy
}

// Stats computes ontology statistics.
func (o *Ontology) Stats() Stats {
	s := Stats{
		Classes:         len(o.classes),
		ObjectProps:     len(o.objProps),
		DataProps:       len(o.dataProps),
		InclusionAxioms: len(o.SubClasses) + len(o.Existentials) + len(o.SubProps),
	}
	s.MaxDepth = o.hierarchyDepth()
	return s
}

// hierarchyDepth returns the length of the longest strict subclass chain
// between named classes (cycles count as depth of their condensation).
func (o *Ontology) hierarchyDepth() int {
	edges := make(map[string][]string) // sub -> sups (named only)
	for _, ax := range o.SubClasses {
		if ax.Sub.IsNamed() && ax.Sup.IsNamed() {
			edges[ax.Sub.Class] = append(edges[ax.Sub.Class], ax.Sup.Class)
		}
	}
	memo := make(map[string]int)
	onStack := make(map[string]bool)
	var depth func(string) int
	depth = func(c string) int {
		if d, ok := memo[c]; ok {
			return d
		}
		if onStack[c] {
			return 0 // cycle guard
		}
		onStack[c] = true
		best := 0
		for _, sup := range edges[c] {
			if d := depth(sup) + 1; d > best {
				best = d
			}
		}
		onStack[c] = false
		memo[c] = best
		return best
	}
	max := 0
	for c := range o.classes {
		if d := depth(c); d > max {
			max = d
		}
	}
	return max
}

func (o *Ontology) String() string {
	s := o.Stats()
	return fmt.Sprintf("Ontology(%s: %d classes, %d obj props, %d data props, %d axioms, depth %d)",
		o.IRI, s.Classes, s.ObjectProps, s.DataProps, s.InclusionAxioms, s.MaxDepth)
}
