package owl

import (
	"slices"
	"sort"
	"strings"
)

// classification caches the reflexive-transitive closure of the concept and
// property hierarchies, the pieces every query-rewriting step consumes.
// Each closure is a sorted slice, the order the accessors return it in: a
// fraction of the memory of one set per concept, and membership is a
// binary search. Concepts are numbered in conceptCmp order, so a concept
// closure is a sorted list of small ids.
type classification struct {
	// concepts lists every basic concept in conceptCmp order; a concept's
	// id is its index in it.
	concepts []Concept
	ids      map[Concept]int32
	// sub[id] lists the ids of the basic concepts subsumed by concept id
	// (including itself), ascending; super is the converse relation.
	sub, super [][]int32
	// subProps[p] lists the (possibly inverted) object properties
	// subsumed by p, including p, in propCmp order.
	subProps map[PropRef][]PropRef
	// subDataProps[u] similarly for data properties (no inverses), sorted.
	subDataProps map[string][]string
}

func (o *Ontology) classify() *classification {
	if o.cls != nil {
		return o.cls
	}
	c := &classification{
		subProps:     make(map[PropRef][]PropRef),
		subDataProps: make(map[string][]string),
	}

	// --- property hierarchy (with inverses) ---
	// edges: sub -> sup
	pEdges := make(map[PropRef][]PropRef)
	addPEdge := func(sub, sup PropRef) {
		pEdges[sub] = append(pEdges[sub], sup)
		pEdges[sub.Inv()] = append(pEdges[sub.Inv()], sup.Inv())
	}
	for _, ax := range o.SubProps {
		if ax.IsData {
			continue
		}
		addPEdge(ax.Sub, ax.Sup)
	}
	for _, inv := range o.Inverses {
		p := PropRef{Prop: inv[0]}
		q := PropRef{Prop: inv[1]}
		addPEdge(p, q.Inv())
		addPEdge(q.Inv(), p)
	}
	// closure per declared property (both orientations)
	for prop := range o.objProps {
		for _, orient := range []bool{false, true} {
			root := PropRef{Prop: prop, Inverse: orient}
			c.subProps[root] = sortedKeys(reachableInverse(pEdges, root), propCmp)
		}
	}

	// --- data property hierarchy ---
	dEdges := make(map[string][]string)
	for _, ax := range o.SubProps {
		if ax.IsData {
			dEdges[ax.Sub.Prop] = append(dEdges[ax.Sub.Prop], ax.Sup.Prop)
		}
	}
	for prop := range o.dataProps {
		c.subDataProps[prop] = sortedKeys(reachableInverseStr(dEdges, prop), strings.Compare)
	}

	// --- concept hierarchy ---
	// Direct edges from subclass axioms...
	cEdges := make(map[Concept][]Concept) // sub -> sups
	for _, ax := range o.SubClasses {
		cEdges[ax.Sub] = append(cEdges[ax.Sub], ax.Sup)
	}
	// ...plus A ⊑ ∃R.B implies A ⊑ ∃R...
	for _, ax := range o.Existentials {
		cEdges[ax.Sub] = append(cEdges[ax.Sub], SomeValues(ax.Prop, ax.Inverse))
	}
	// ...plus R ⊑ S implies ∃R ⊑ ∃S and ∃R⁻ ⊑ ∃S⁻ (in closure form, via
	// the property hierarchy).
	for prop := range o.objProps {
		for _, orient := range []bool{false, true} {
			p := PropRef{Prop: prop, Inverse: orient}
			for _, sub := range c.subProps[p] {
				if sub == p {
					continue
				}
				cEdges[SomeValues(sub.Prop, sub.Inverse)] =
					append(cEdges[SomeValues(sub.Prop, sub.Inverse)], SomeValues(p.Prop, p.Inverse))
			}
		}
	}
	// ...plus U ⊑ V for data props implies ∃U ⊑ ∃V.
	for prop := range o.dataProps {
		for _, sub := range c.subDataProps[prop] {
			if sub == prop {
				continue
			}
			cEdges[SomeData(sub)] = append(cEdges[SomeData(sub)], SomeData(prop))
		}
	}

	// All basic concepts appearing anywhere.
	all := make(map[Concept]bool)
	for cl := range o.classes {
		all[NamedConcept(cl)] = true
	}
	for p := range o.objProps {
		all[SomeValues(p, false)] = true
		all[SomeValues(p, true)] = true
	}
	for p := range o.dataProps {
		all[SomeData(p)] = true
	}
	for sub, sups := range cEdges {
		all[sub] = true
		for _, s := range sups {
			all[s] = true
		}
	}

	// Reverse edges for the sub-concepts relation: sup -> subs.
	rev := make(map[Concept][]Concept)
	for sub, sups := range cEdges {
		for _, sup := range sups {
			rev[sup] = append(rev[sup], sub)
		}
	}
	c.concepts = sortedKeys(all, conceptCmp)
	c.ids = make(map[Concept]int32, len(c.concepts))
	for id, concept := range c.concepts {
		c.ids[concept] = int32(id)
	}
	c.sub = make([][]int32, len(c.concepts))
	c.super = make([][]int32, len(c.concepts))
	for id, concept := range c.concepts {
		c.sub[id] = c.idList(reachableConcepts(rev, concept))
		c.super[id] = c.idList(reachableConcepts(cEdges, concept))
	}

	o.cls = c
	return c
}

func reachableConcepts(edges map[Concept][]Concept, start Concept) map[Concept]bool {
	seen := map[Concept]bool{start: true}
	stack := []Concept{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range edges[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

func reachableInverse(edges map[PropRef][]PropRef, root PropRef) map[PropRef]bool {
	// compute all p with p ⊑* root: reverse reachability.
	rev := make(map[PropRef][]PropRef)
	for sub, sups := range edges {
		for _, sup := range sups {
			rev[sup] = append(rev[sup], sub)
		}
	}
	seen := map[PropRef]bool{root: true}
	stack := []PropRef{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range rev[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

func reachableInverseStr(edges map[string][]string, root string) map[string]bool {
	rev := make(map[string][]string)
	for sub, sups := range edges {
		for _, sup := range sups {
			rev[sup] = append(rev[sup], sub)
		}
	}
	seen := map[string]bool{root: true}
	stack := []string{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range rev[cur] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// idList returns the ids of a set of known concepts, ascending.
func (cl *classification) idList(set map[Concept]bool) []int32 {
	out := make([]int32, 0, len(set))
	for concept := range set {
		out = append(out, cl.ids[concept])
	}
	slices.Sort(out)
	return out
}

// closure returns the concepts of one closure of c (sub or super), or just
// c for a concept the ontology does not mention.
func (cl *classification) closure(rel [][]int32, c Concept) []Concept {
	id, ok := cl.ids[c]
	if !ok {
		return []Concept{c}
	}
	out := make([]Concept, len(rel[id]))
	for i, j := range rel[id] {
		out[i] = cl.concepts[j]
	}
	return out
}

// in reports whether concept x is in the closure rel of concept c.
func (cl *classification) in(rel [][]int32, c, x Concept) bool {
	id, ok := cl.ids[c]
	if !ok {
		return false
	}
	xid, ok := cl.ids[x]
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(rel[id], xid)
	return found
}

// SubConceptsOf returns all basic concepts subsumed by c (including c),
// sorted deterministically.
func (o *Ontology) SubConceptsOf(c Concept) []Concept {
	cl := o.classify()
	return cl.closure(cl.sub, c)
}

// SuperConceptsOf returns all basic concepts subsuming c (including c).
func (o *Ontology) SuperConceptsOf(c Concept) []Concept {
	cl := o.classify()
	return cl.closure(cl.super, c)
}

// SubPropertiesOf returns the (possibly inverted) object properties
// subsumed by p, including p itself.
func (o *Ontology) SubPropertiesOf(p PropRef) []PropRef {
	s := o.classify().subProps[p]
	if s == nil {
		return []PropRef{p}
	}
	return slices.Clone(s)
}

// SubDataPropertiesOf returns the data properties subsumed by u, including
// u itself.
func (o *Ontology) SubDataPropertiesOf(u string) []string {
	s := o.classify().subDataProps[u]
	if s == nil {
		return []string{u}
	}
	return slices.Clone(s)
}

// Subsumes reports whether sup subsumes sub (sub ⊑* sup).
func (o *Ontology) Subsumes(sup, sub Concept) bool {
	cl := o.classify()
	return cl.in(cl.sub, sup, sub)
}

// GeneratingAxioms returns the existential axioms applicable to instances of
// concept c: every ExistAxiom whose Sub subsumes-or-equals some
// super-concept of c. These drive tree-witness detection.
func (o *Ontology) GeneratingAxioms(c Concept) []ExistAxiom {
	cl := o.classify()
	var out []ExistAxiom
	for _, ax := range o.Existentials {
		if cl.in(cl.super, c, ax.Sub) || ax.Sub == c {
			out = append(out, ax)
		}
	}
	return out
}

// UnsatisfiableClasses returns named classes that can have no instances in
// any model: classes subsumed by two declared-disjoint concepts.
func (o *Ontology) UnsatisfiableClasses() []string {
	cl := o.classify()
	var out []string
	for class := range o.classes {
		c := NamedConcept(class)
		for _, d := range o.Disjoints {
			if cl.in(cl.super, c, d.A) && cl.in(cl.super, c, d.B) {
				out = append(out, class)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// sortedKeys returns the keys of a set in cmp order.
func sortedKeys[K comparable](m map[K]bool, cmp func(a, b K) int) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, cmp)
	return out
}

// conceptCmp orders concepts by class, property, then direct before
// inverse and object before data.
func conceptCmp(a, b Concept) int {
	if c := strings.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	if c := strings.Compare(a.Prop, b.Prop); c != 0 {
		return c
	}
	if c := boolCmp(a.Inverse, b.Inverse); c != 0 {
		return c
	}
	return boolCmp(a.IsData, b.IsData)
}

// propCmp orders properties by IRI, direct before inverse.
func propCmp(a, b PropRef) int {
	if c := strings.Compare(a.Prop, b.Prop); c != 0 {
		return c
	}
	return boolCmp(a.Inverse, b.Inverse)
}

// boolCmp orders false before true.
func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}
